package databreak

import (
	"testing"

	"databreak/internal/asm"
	"databreak/internal/bench"
	"databreak/internal/cache"
	"databreak/internal/machine"
	"databreak/internal/minic"
	"databreak/internal/monitor"
	"databreak/internal/patch"
	"databreak/internal/workload"
)

// TestMidRunBreakpointLifecycle drives the real debugger workflow: the
// program runs, a data breakpoint is created mid-execution, hits arrive only
// from then on, and deleting it stops them — all while the debuggee keeps
// running. Overheads aside, this is the paper's whole point: monitored
// regions can come and go at any time because the checks are always in
// place and consult only the bitmap.
func TestMidRunBreakpointLifecycle(t *testing.T) {
	src := `
int cell;
int main() {
	int round;
	for (round = 0; round < 9; round = round + 1) {
		cell = round;
	}
	return cell;
}
`
	asmSrc, err := minic.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	u, err := asm.Parse("mid.c", asmSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := patch.Apply(patch.Options{Strategy: patch.BitmapInlineRegisters}, u)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	prog.Load(m)
	svc, err := monitor.NewService(monitor.DefaultConfig, m)
	if err != nil {
		t.Fatal(err)
	}
	var hits []monitor.Hit
	svc.OnHit = func(h monitor.Hit) { hits = append(hits, h) }
	sym, ok := prog.LookupSym("cell", "")
	if !ok {
		t.Fatal("no symbol cell")
	}

	// Phase 1: run until cell reaches 3 with no breakpoint — no hits.
	for m.ReadWord(sym.Addr) < 3 && !m.Halted() {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(hits) != 0 {
		t.Fatalf("hits before creation: %d", len(hits))
	}

	// Phase 2: create the breakpoint mid-run; the next writes must hit.
	if err := svc.CreateRegion(sym.Addr, 4); err != nil {
		t.Fatal(err)
	}
	for m.ReadWord(sym.Addr) < 6 && !m.Halted() {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	mid := len(hits)
	if mid == 0 {
		t.Fatal("no hits while the region was live")
	}

	// Phase 3: delete it; the remaining writes must be silent again.
	if err := svc.DeleteRegion(sym.Addr, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != mid {
		t.Fatalf("hits after deletion grew: %d -> %d", mid, len(hits))
	}
	if m.ExitCode() != 8 {
		t.Fatalf("exit = %d, want 8", m.ExitCode())
	}
	// Every recorded hit names the watched word.
	for _, h := range hits {
		if h.Addr != sym.Addr {
			t.Fatalf("stray hit at %#x", h.Addr)
		}
	}
}

// TestManyRegionsOverheadIndependence verifies the paper's abstract claim
// directly: the overhead of checking is independent of the number of
// monitored regions (as long as they are not being written).
func TestManyRegionsOverheadIndependence(t *testing.T) {
	src := `
int work[256];
int main() {
	int i;
	int r;
	for (r = 0; r < 40; r = r + 1) {
		for (i = 0; i < 256; i = i + 1) work[i] = i + r;
	}
	return work[255];
}
`
	asmSrc, err := minic.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	u, err := asm.Parse("many.c", asmSrc)
	if err != nil {
		t.Fatal(err)
	}
	run := func(nRegions int) int64 {
		res, err := patch.Apply(patch.Options{Strategy: patch.BitmapInlineRegisters}, u.Clone())
		if err != nil {
			t.Fatal(err)
		}
		prog, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
		if err != nil {
			t.Fatal(err)
		}
		m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
		prog.Load(m)
		svc, err := monitor.NewService(monitor.DefaultConfig, m)
		if err != nil {
			t.Fatal(err)
		}
		// Far-away regions the program never touches.
		for i := 0; i < nRegions; i++ {
			if err := svc.CreateRegion(0x7000_0000+uint32(i)*64, 4); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if svc.HitCount != 0 {
			t.Fatal("far regions must not hit")
		}
		return m.Cycles()
	}
	one := run(1)
	many := run(200)
	// Identical cycle counts: the check cost does not depend on the number
	// of regions at all (bitmap lookups read the same words).
	if one != many {
		t.Fatalf("1 region: %d cycles; 200 regions: %d cycles — overhead must be independent", one, many)
	}
}

// TestPinnedWorkloadCounts pins exact simulated cycle/instruction counts and
// program output for representative workloads under the baseline and two
// write-check strategies. The simulator is a deterministic cost model: these
// numbers ARE the experiment results, so any interpreter change — including
// host-speed optimizations — must reproduce them bit for bit. If an
// intentional cost-model change moves them, update the constants and note it
// in EXPERIMENTS.md; an unintentional diff here is a correctness bug.
func TestPinnedWorkloadCounts(t *testing.T) {
	type pin struct {
		cycles, instrs int64
		output         string
	}
	golden := map[string]map[string]pin{
		"eqntott": {
			"base":  {2145882, 1398794, "19987\n"},
			"bir":   {4184323, 2713402, "19987\n"},
			"cache": {2980393, 2041067, "19987\n"},
		},
		"matrix300": {
			"base":  {7764135, 4207825, "317196\n"},
			"bir":   {17363271, 8616273, "317196\n"},
			"cache": {9835325, 5933398, "317196\n"},
		},
	}
	cfg := bench.DefaultConfig()
	for name, pins := range golden {
		p, ok := workload.ByName(name, 1)
		if !ok {
			t.Fatalf("missing workload %s", name)
		}
		u, err := bench.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		runs := map[string]func() (bench.Run, error){
			"base": func() (bench.Run, error) { return cfg.RunBaseline(u) },
			"bir": func() (bench.Run, error) {
				return cfg.RunStrategy(u, patch.BitmapInlineRegisters, monitor.DefaultConfig, false)
			},
			"cache": func() (bench.Run, error) {
				mcfg := monitor.DefaultConfig
				mcfg.Flags = true
				return cfg.RunStrategy(u, patch.Cache, mcfg, false)
			},
		}
		for variant, want := range pins {
			got, err := runs[variant]()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, variant, err)
			}
			if got.Cycles != want.cycles || got.Instrs != want.instrs || got.Output != want.output {
				t.Errorf("%s/%s: cycles/instrs/output = %d/%d/%q, want %d/%d/%q",
					name, variant, got.Cycles, got.Instrs, got.Output,
					want.cycles, want.instrs, want.output)
			}
		}
	}
}
