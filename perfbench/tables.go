package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"time"

	"databreak/internal/asm"
	"databreak/internal/bench"
	"databreak/internal/elim"
	"databreak/internal/machine"
	"databreak/internal/monitor"
	"databreak/internal/patch"
	"databreak/internal/workload"
)

// tables is the paper's Tables 1-2 over patched code, closed loop with one
// caller (mrsbench -workers 1). Set-up builds every workload's unpatched
// program and its monitored variants and runs the unpatched reference; the
// timed phase runs the monitored cells, each on a fresh machine from the
// default machine factory, in a seeded order.
type tables struct {
	newMachine func() *machine.Machine
	progs      []tableProg
}

// The five monitored cells of every workload. The first three are the
// paper's check implementations with a region no program touches; the last
// two use the same layers differently: arming a global's eliminated checks
// patches live text (copy-on-write and private trace recompilation), and
// read checks deliver load hits.
const (
	cellBmInlReg = iota
	cellCacheInline
	cellElimFar
	cellElimWatch
	cellLoadWatch
	nCells
)

var cellNames = [nCells]string{
	"BitmapInlineRegisters/far", "CacheInline/far", "elim-Full/far",
	"elim-Full/PreMonitorSymbol", "BitmapInlineRegisters+reads/load-watch",
}

// cellVariants is the program each cell runs.
var cellVariants = [nCells]variant{
	cellBmInlReg:    patchVariant(patch.BitmapInlineRegisters, false),
	cellCacheInline: patchVariant(patch.CacheInline, false),
	cellElimFar:     elimVariant(elim.Full),
	cellElimWatch:   elimVariant(elim.Full),
	cellLoadWatch:   patchVariant(patch.BitmapInlineRegisters, true),
}

// tableProg is one workload's set-up: its unpatched reference and the
// programs its cells run. The two elim cells share one program, as they
// share one artifact in mrsbench.
type tableProg struct {
	name  string
	base  outcome
	progs [nCells]*asm.Program
	elim  *elim.Result
	// globals are the candidates for the PreMonitorSymbol cell, in symbol
	// table order. Every workload writes every one of its globals, so a
	// watch cell that reports no hit has missed one.
	globals []string
}

func farRegion(rq *req, svc *monitor.Service) error {
	return regionOp(rq, func() error { return svc.CreateRegion(bench.FarRegion, 4) })
}

func loadWatchRegions(rq *req, svc *monitor.Service) error {
	if err := farRegion(rq, svc); err != nil {
		return err
	}
	return regionOp(rq, func() error {
		return svc.CreateRegionKind(bench.HitRegion, bench.HitRegionSize, monitor.KindLoad)
	})
}

// setup builds and runs each workload's references, one step per workload.
func (t *tables) setup(tr *Tracer, st stepTimes) error {
	t.newMachine = bench.DefaultConfig().MachineFactory()
	rq := tr.request(setupReq)
	sp := rq.begin("harness.setup")
	defer rq.end(sp)
	t.progs = t.progs[:0]
	for _, p := range workload.All(1) {
		err := st.step("tables "+p.Name, func() error {
			tp, err := t.setupProg(rq, p)
			t.progs = append(t.progs, tp)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// setupProg builds one workload's programs and runs its unpatched
// reference.
func (t *tables) setupProg(rq *req, p workload.Program) (tableProg, error) {
	tp := tableProg{name: p.Name}
	u, err := compile(rq, p.Name, p.Source)
	if err != nil {
		return tp, err
	}
	sp := rq.begin("asm.Assemble")
	base, err := asm.Assemble(asm.Options{AddStartup: true}, u.Clone())
	rq.end(sp)
	if err != nil {
		return tp, fmt.Errorf("%s: assemble: %w", p.Name, err)
	}
	ready(rq, base, t.newMachine)
	if tp.base, err = runBaseline(rq, base, t.newMachine); err != nil {
		return tp, fmt.Errorf("%s: baseline: %w", p.Name, err)
	}
	for c, v := range cellVariants {
		if c == cellElimWatch {
			continue // runs cellElimFar's program
		}
		b, err := rewrite(rq, u.Clone(), v)
		if err != nil {
			return tp, fmt.Errorf("%s: %w", p.Name, err)
		}
		ready(rq, b.Prog, t.newMachine)
		tp.progs[c] = b.Prog
		if b.Elim != nil {
			tp.elim = b.Elim
		}
	}
	tp.progs[cellElimWatch] = tp.progs[cellElimFar]
	for _, sym := range tp.progs[cellElimFar].Syms {
		if sym.Kind == asm.SymGlobal {
			tp.globals = append(tp.globals, sym.Name)
		}
	}
	if len(tp.globals) == 0 {
		return tp, fmt.Errorf("%s: no global to watch", p.Name)
	}
	return tp, nil
}

// cellKey identifies one distinct execution: its simulated counts must
// repeat exactly every time it runs.
type cellKey struct {
	prog, cell int
	watch      string
}

// runCell executes one cell on a fresh machine.
func (t *tables) runCell(rq *req, tp *tableProg, cell int, watch string) (outcome, error) {
	prog, mcfg := tp.progs[cell], cellVariants[cell].monitorConfig()
	switch cell {
	case cellElimFar:
		return execute(rq, prog, tp.elim, mcfg, farRegion, "", t.newMachine)
	case cellElimWatch:
		return execute(rq, prog, tp.elim, mcfg, nil, watch, t.newMachine)
	case cellLoadWatch:
		return execute(rq, prog, nil, mcfg, loadWatchRegions, "", t.newMachine)
	}
	return execute(rq, prog, nil, mcfg, farRegion, "", t.newMachine)
}

// minTablePasses keeps at least 150 cells in a run, enough for a p90 with
// fifteen samples beyond it, and three runs of every cell to take its
// median over.
const minTablePasses = 3

func (t *tables) timed(tr *Tracer, rng *rand.Rand, seconds float64) (phase, error) {
	type job struct{ prog, cell int }
	var order []job
	for i := range t.progs {
		for c := 0; c < nCells; c++ {
			order = append(order, job{i, c})
		}
	}
	first := map[cellKey]outcome{}
	times := map[job][]float64{}
	var ph phase
	start := time.Now()
	passes := 0
	for ; passes < minTablePasses || time.Since(start).Seconds() < seconds; passes++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, j := range order {
			tp := &t.progs[j.prog]
			key := cellKey{prog: j.prog, cell: j.cell}
			if j.cell == cellElimWatch {
				key.watch = tp.globals[rng.IntN(len(tp.globals))]
			}
			rq := tr.request(ph.Attempted)
			sp := rq.begin("harness.cell")
			cellStart := time.Now()
			o, err := t.runCell(rq, tp, j.cell, key.watch)
			d := time.Since(cellStart)
			ph.Attempted++
			if err := checkCell(tp, key, o, err, first); err != nil {
				ph.Failed++
				fmt.Printf("FAIL %s %s: %v\n", tp.name, cellNames[j.cell], err)
			}
			rq.end(sp)
			times[j] = append(times[j], d.Seconds())
		}
	}
	ph.Wall = time.Since(start)
	ph.OpsPerSec, ph.OpTime = byMedian(times)
	ph.MeanOp = time.Duration(float64(time.Second) / ph.OpsPerSec)
	ph.Valid = true

	overhead, digest := t.simOverhead(first)
	ph.Report = append(ph.Report,
		fmt.Sprintf("cells_per_s %.4f (%d cells over the sum of their median times in %d passes)", ph.OpsPerSec, len(order), passes),
		fmt.Sprintf("sim_overhead_pct %v (simulated, %d fixed cells; counts digest %s)", overhead, 4*len(t.progs), digest),
		fmt.Sprintf("watch cells: %d distinct (workload, global) pairs ran", countWatch(first)))
	return ph, nil
}

// checkCell compares one cell's result with the unpatched output and with
// the first run of the same cell.
func checkCell(tp *tableProg, key cellKey, o outcome, err error, first map[cellKey]outcome) error {
	if err != nil {
		return err
	}
	if o.Output != tp.base.Output {
		return fmt.Errorf("output %q, unpatched %q", o.Output, tp.base.Output)
	}
	if (key.cell == cellElimWatch || key.cell == cellLoadWatch) && o.Hits == 0 {
		return fmt.Errorf("no hit on a watched location the program accesses")
	}
	ref, seen := first[key]
	if !seen {
		first[key] = o
		return nil
	}
	if o != ref {
		return fmt.Errorf("cycles/instrs/hits %d/%d/%d, first run %d/%d/%d",
			o.Cycles, o.Instrs, o.Hits, ref.Cycles, ref.Instrs, ref.Hits)
	}
	return nil
}

// simOverhead is the mean simulated-cycle overhead of the four cells whose
// configuration the seed does not choose, and a digest of their counts. The
// PreMonitorSymbol cell is left out: its counts depend on the seeded global.
func (t *tables) simOverhead(first map[cellKey]outcome) (float64, string) {
	h := sha256.New()
	var sum float64
	var n int
	for i, tp := range t.progs {
		for _, c := range []int{cellBmInlReg, cellCacheInline, cellElimFar, cellLoadWatch} {
			o := first[cellKey{prog: i, cell: c}]
			sum += 100 * float64(o.Cycles-tp.base.Cycles) / float64(tp.base.Cycles)
			n++
			fmt.Fprintf(h, "%s/%d:%d/%d/%d;", tp.name, c, o.Cycles, o.Instrs, o.Hits)
		}
	}
	return sum / float64(n), fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func countWatch(first map[cellKey]outcome) int {
	n := 0
	for k := range first {
		if k.watch != "" {
			n++
		}
	}
	return n
}

func (t *tables) defaults() string {
	return fmt.Sprintf("engine %s (bench.DefaultConfig machine factory); no daemon, so no shards or batching; builds held by the benchmark, no artifact cache",
		t.newMachine().Engine())
}

func (t *tables) close() {}
