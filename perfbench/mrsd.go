package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"databreak/internal/asm"
	"databreak/internal/bench"
	"databreak/internal/machine"
	"databreak/internal/monitor"
	"databreak/internal/mrsnet"
	"databreak/internal/patch"
	"databreak/internal/workload"
)

// mrsdWatch is live debugger sessions against an in-process mrsd, open
// loop: sessions arrive on a seeded Poisson schedule at sessionRate, each
// attaches a workload, watches the stack word every workload writes
// (bench.HitRegion) with a store or a transition region, runs, is checked
// against a serial reference, and detaches. A quarter of the sessions also
// churn a region and patch live text while they run.
//
// All load comes from this process: one generator goroutine releases each
// session at its due time, and every released session holds a goroutine
// that only waits on its replies. The sessions share two client
// connections.
type mrsdWatch struct {
	cfg      bench.Config
	d        *mrsnet.Daemon
	clients  []*mrsnet.Client
	programs []workload.Program
	refs     map[sessionKind]outcome
	// maxBatch is the largest hit frame any client received: the daemon's
	// effective batch size once a hit-dense session has filled a frame.
	maxBatch atomic.Int64
	// phases numbers timed phases so session ids never repeat.
	phases int
}

// sessionRate is the offered load in sessions per second, calibrated once
// to sit well below the two-core capacity (see README.md) and recorded in
// BENCHMARK.json.
const sessionRate = 4.0

// artifactCap is cmd/mrsd's default artifact-cache bound.
const artifactCap = 128 << 20

// clientConns is how many client connections carry the sessions.
const clientConns = 2

// minSessions keeps at least ten samples beyond p90.
const minSessions = 100

// churnRounds is how many region add/remove (and live patch) rounds a
// churning session performs while it runs, as mrsbench -mrsd does.
const churnRounds = 4

// sessionKind is the part of a session that decides its result.
type sessionKind struct {
	prog       int
	transition bool
}

// sessionSpec is one scheduled session.
type sessionSpec struct {
	sessionKind
	churn bool
	due   time.Duration // since the phase start
}

// setup runs the serial references, one step per workload, starts the
// daemon and its clients, and warms the artifact cache, one step per
// workload.
func (w *mrsdWatch) setup(tr *Tracer, st stepTimes) error {
	w.close()
	w.cfg = bench.DefaultConfig()
	w.cfg.Artifacts = bench.NewArtifactCache()
	w.cfg.Artifacts.SetCapBytes(artifactCap)
	newMachine := w.cfg.MachineFactory()
	w.programs = workload.All(1)
	w.refs = map[sessionKind]outcome{}

	// Serial references, built and run in-process on the program the
	// daemon serves: the default strategy, write checks only.
	rq := tr.request(setupReq)
	sp := rq.begin("harness.setup")
	defer rq.end(sp)
	v := patchVariant(patch.BitmapInlineRegisters, false)
	for i, p := range w.programs {
		err := st.step("references "+p.Name, func() error {
			u, err := compile(rq, p.Name, p.Source)
			if err != nil {
				return err
			}
			b, err := rewrite(rq, u, v)
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			ready(rq, b.Prog, newMachine)
			for _, transition := range []bool{false, true} {
				o, err := execute(rq, b.Prog, nil, v.monitorConfig(), hitRegion(transition), "", newMachine)
				if err != nil {
					return fmt.Errorf("%s: reference: %w", p.Name, err)
				}
				if o.Hits == 0 {
					return fmt.Errorf("%s: reference run has no hit to time", p.Name)
				}
				w.refs[sessionKind{i, transition}] = o
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	// The daemon, built the way cmd/mrsd builds it, with no option set but
	// its artifact cap.
	programs, machines := w.cfg.ProgramSource(), w.cfg.MachineFactory()
	if tr != nil {
		innerPrograms, innerMachines := programs, machines
		programs = func(name string, scale int, s patch.Strategy) (*asm.Program, error) {
			rq := tr.request(daemonReq)
			sp := rq.begin("bench.ProgramSource")
			defer rq.end(sp)
			return innerPrograms(name, scale, s)
		}
		machines = func() *machine.Machine { return makeMachine(tr.request(daemonReq), innerMachines) }
	}
	err := st.step("daemon", func() error {
		d, err := mrsnet.NewDaemon(mrsnet.Options{Programs: programs, NewMachine: machines})
		if err != nil {
			return err
		}
		w.d = d
		for i := 0; i < clientConns; i++ {
			cl, err := mrsnet.NewClient(d.Pipe(), mrsnet.Hello{})
			if err != nil {
				return err
			}
			cl.OnHits = w.noteBatch
			w.clients = append(w.clients, cl)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Warm the artifact cache: one attach per workload builds its program.
	for i, p := range w.programs {
		err := st.step("warm "+p.Name, func() error {
			s, err := w.clients[i%clientConns].Attach(mrsnet.AttachSpec{SID: "warm-" + p.Name, Workload: p.Name})
			if err != nil {
				return err
			}
			return s.Detach()
		})
		if err != nil {
			return fmt.Errorf("warm %s: %w", p.Name, err)
		}
	}
	return nil
}

// noteBatch records the size of a hit frame the client received.
func (w *mrsdWatch) noteBatch(batch []mrsnet.HitRec) {
	for n := int64(len(batch)); ; {
		cur := w.maxBatch.Load()
		if n <= cur || w.maxBatch.CompareAndSwap(cur, n) {
			return
		}
	}
}

// hitRegion installs the session's watch on bench.HitRegion in-process.
func hitRegion(transition bool) regionSetup {
	return func(rq *req, svc *monitor.Service) error {
		return regionOp(rq, func() error {
			if transition {
				return svc.CreateTransitionRegion(bench.HitRegion, bench.HitRegionSize,
					monitor.Predicate{Kind: monitor.PredChanged})
			}
			return svc.CreateRegionKind(bench.HitRegion, bench.HitRegionSize, monitor.KindStore)
		})
	}
}

// schedule draws a phase's sessions. Arrivals are a Poisson process at
// sessionRate conditioned on n arrivals: n uniform points over n/rate
// seconds. The mix is stratified so every seed runs the same mix in a
// different order: each block of 2×len(programs) sessions holds every
// (workload, region kind) pair once, and a quarter of each block churns,
// taking turns so that every pair churns once in four blocks.
func (w *mrsdWatch) schedule(rng *rand.Rand, seconds float64) []sessionSpec {
	block := 2 * len(w.programs)
	n := int(seconds * sessionRate)
	if n < minSessions {
		n = minSessions
	}
	n = (n + block - 1) / block * block
	span := float64(n) / sessionRate
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * span
	}
	sort.Float64s(dues)
	var pairs []sessionKind
	for i := range w.programs {
		for _, transition := range []bool{false, true} {
			pairs = append(pairs, sessionKind{i, transition})
		}
	}
	churnTurn := map[sessionKind]int{}
	for turn, i := range rng.Perm(block) {
		churnTurn[pairs[i]] = turn * 4 / block
	}
	specs := make([]sessionSpec, 0, n)
	for b := 0; len(specs) < n; b++ {
		kinds := make([]sessionSpec, 0, block)
		for _, k := range pairs {
			kinds = append(kinds, sessionSpec{sessionKind: k, churn: churnTurn[k] == b%4})
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		specs = append(specs, kinds...)
	}
	for i := range specs {
		specs[i].due = time.Duration(dues[i] * float64(time.Second))
	}
	return specs
}

// sessionResult is what one session measured.
type sessionResult struct {
	firstHit, total time.Duration // since the due time
	err             error
}

func (w *mrsdWatch) timed(tr *Tracer, rng *rand.Rand, seconds float64) (phase, error) {
	specs := w.schedule(rng, seconds)
	w.phases++
	results := make([]sessionResult, len(specs))
	lags := make([]float64, len(specs))
	inFlight := make([]float64, len(specs))
	var done atomic.Int64
	var wg sync.WaitGroup
	cpu0 := cpuSeconds()
	start := time.Now()
	for i, spec := range specs {
		due := start.Add(spec.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags[i] = ms(time.Since(due))
		inFlight[i] = float64(int64(i) - done.Load())
		tr.observe("mrsnet.gen_lag_ms", lags[i])
		tr.observe("mrsnet.in_flight", inFlight[i])
		wg.Add(1)
		go func(i int, spec sessionSpec, due time.Time) {
			defer wg.Done()
			sid := fmt.Sprintf("p%d-s%d", w.phases, i)
			results[i] = w.session(tr.request(i), w.clients[i%clientConns], sid, spec, due)
			done.Add(1)
		}(i, spec, due)
	}
	wg.Wait()
	cpu := cpuSeconds() - cpu0

	ph := phase{Attempted: len(specs), Wall: time.Since(start)}
	var firsts, sessions []float64
	times := map[sessionKind][]float64{}
	for i, r := range results {
		if r.err != nil {
			ph.Failed++
			fmt.Printf("FAIL session %d (%s): %v\n", i, w.programs[specs[i].prog].Name, r.err)
			continue
		}
		firsts = append(firsts, ms(r.firstHit))
		sessions = append(sessions, ms(r.total))
		times[specs[i].sessionKind] = append(times[specs[i].sessionKind], r.total.Seconds())
	}
	ph.OpTime = sessions
	ph.MeanOp = time.Duration(mean(sessions) * float64(time.Millisecond))
	// Throughput is what the daemon sets, not the offered rate: completed
	// sessions per second of CPU the process spent on them. Every run serves
	// the same mix of whole blocks, so the figure is the inverse of the mean
	// CPU cost of a session, daemon, wire and client together. Wall-clock
	// rates are reported below: in an open loop on two cores they mix the
	// cost with queueing, which swings with the arrival order and grows
	// faster than linearly when the host slows.
	ph.OpsPerSec = float64(len(specs)-ph.Failed) / cpu
	pairRate, _ := byMedian(times)
	first, last, grew := backlogGrew(inFlight)
	ph.Valid = !grew

	ph.Report = append(ph.Report,
		fmt.Sprintf("offered %g sessions/s, %d sessions over %.3f s; completed %.4f sessions/s",
			sessionRate, len(specs), specs[len(specs)-1].due.Seconds(), float64(len(specs)-ph.Failed)/ph.Wall.Seconds()),
		fmt.Sprintf("sessions_per_cpu_s %.4f (%d sessions completed over %.4f s of process CPU, user and system)",
			ph.OpsPerSec, len(specs)-ph.Failed, cpu),
		fmt.Sprintf("sessions_per_s %.4f (%d (workload, region kind) pairs over the sum of their median session times)",
			pairRate, len(times)),
		w.pairLine(times))
	for _, m := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"first_hit_p50_ms", firsts, 0.5}, {"first_hit_p90_ms", firsts, 0.9},
		{"session_p50_ms", sessions, 0.5}, {"session_p90_ms", sessions, 0.9},
		{"gen_lag_p90_ms", lags, 0.9}, {"in_flight_p90", inFlight, 0.9},
	} {
		ph.Report = append(ph.Report, pctileLine(m.name, m.xs, m.q))
	}
	ph.Report = append(ph.Report, fmt.Sprintf("backlog: mean in flight %.3f over the first quarter, %.3f over the last", first, last))
	if tr != nil {
		st := w.cfg.Artifacts.Stats()
		tr.observe("bench.artifact_hit_frac", float64(st.Hits)/float64(st.Hits+st.Misses))
		tr.observe("bench.artifact_mb", float64(st.Bytes)/1e6)
	}
	return ph, nil
}

// pairLine lists each (workload, region kind) pair's median session time.
func (w *mrsdWatch) pairLine(times map[sessionKind][]float64) string {
	line := "median session ms:"
	for i, p := range w.programs {
		for _, transition := range []bool{false, true} {
			kind := "store"
			if transition {
				kind = "changed"
			}
			line += fmt.Sprintf(" %s/%s %.1f", p.Name, kind, 1000*median(times[sessionKind{i, transition}]))
		}
	}
	return line
}

// session runs one scheduled session and checks it against its serial
// reference. Latencies count from the due time, so a late start is charged
// to the session.
func (w *mrsdWatch) session(rq *req, cl *mrsnet.Client, sid string, spec sessionSpec, due time.Time) sessionResult {
	sp := rq.begin("harness.session")
	defer rq.end(sp)
	ref := w.refs[spec.sessionKind]
	name := w.programs[spec.prog].Name

	call := func(op string, fn func() error) error {
		sp := rq.begin(op)
		defer rq.end(sp)
		return fn()
	}
	var s *mrsnet.ClientSession
	err := call("mrsnet.Attach", func() (err error) {
		s, err = cl.Attach(mrsnet.AttachSpec{SID: sid, Workload: name})
		return err
	})
	if err != nil {
		return sessionResult{err: err}
	}
	err = call("mrsnet.Region", func() error {
		if spec.transition {
			return s.CreateTransitionRegion(bench.HitRegion, bench.HitRegionSize, "changed", 0)
		}
		return s.CreateRegionKind(bench.HitRegion, bench.HitRegionSize, "store")
	})
	if err != nil {
		return sessionResult{err: err}
	}

	runSpan := rq.begin("mrsnet.Run")
	runStart := time.Now()
	var res mrsnet.RunResult
	if spec.churn {
		err = w.churn(rq, s, call)
	} else {
		res, err = s.Run()
	}
	if spec.churn && err == nil {
		res, err = s.Wait()
	}
	rq.end(runSpan)
	if err != nil {
		return sessionResult{err: err}
	}
	first := s.FirstHitAt()
	if first.IsZero() {
		return sessionResult{err: errors.New("no hit delivered")}
	}
	rq.observe("mrsnet.run_to_first_hit_ms", ms(first.Sub(runStart)))
	rq.observe("mrsnet.hits_delivered", float64(s.Hits()))
	rq.observe("monitor.hits", float64(res.HitTotal))

	// Live patches invalidate the session's simulated I-cache, so a
	// churning session's cycles are self-consistent but not comparable with
	// the serial run (the rule bench.Stress and mrsbench -mrsd apply).
	if (!spec.churn && res.Cycles != ref.Cycles) || res.Instrs != ref.Instrs ||
		res.Output != ref.Output || res.HitTotal != ref.Hits {
		return sessionResult{err: fmt.Errorf("diverged from serial: cycles %d/%d instrs %d/%d hits %d/%d output match %v",
			res.Cycles, ref.Cycles, res.Instrs, ref.Instrs, res.HitTotal, ref.Hits, res.Output == ref.Output)}
	}
	if got := s.Hits(); got != res.HitTotal {
		return sessionResult{err: fmt.Errorf("client received %d of %d hits", got, res.HitTotal)}
	}
	if err := call("mrsnet.Detach", s.Detach); err != nil {
		return sessionResult{err: err}
	}
	return sessionResult{firstHit: first.Sub(due), total: time.Since(due)}
}

// churn starts the run and, while it executes, adds and removes a far
// region and toggles the startup instruction to unimp and back, as
// mrsbench -mrsd's patch-churn sessions do.
func (w *mrsdWatch) churn(rq *req, s *mrsnet.ClientSession, call func(string, func() error) error) error {
	if err := s.Start(); err != nil {
		return err
	}
	for j := 0; j < churnRounds; j++ {
		if err := call("mrsnet.Region", func() error { return s.CreateRegion(bench.ChurnRegion, 16) }); err != nil {
			return fmt.Errorf("churn create: %w", err)
		}
		if err := call("mrsnet.Region", func() error { return s.DeleteRegion(bench.ChurnRegion, 16) }); err != nil {
			return fmt.Errorf("churn delete: %w", err)
		}
		var applied bool
		err := call("mrsnet.PatchToggle", func() (err error) {
			applied, err = s.PatchToggle(0, true)
			return err
		})
		if err != nil {
			return fmt.Errorf("patch: %w", err)
		}
		if applied {
			if err := call("mrsnet.PatchToggle", func() error {
				_, err := s.PatchToggle(0, false)
				return err
			}); err != nil {
				return fmt.Errorf("patch restore: %w", err)
			}
		}
	}
	return nil
}

func (w *mrsdWatch) defaults() string {
	st := w.cfg.Artifacts.Stats()
	return fmt.Sprintf("engine %s (bench.DefaultConfig machine factory); mrsd shards %d; hit batch %d (largest frame received); artifact cap %d bytes",
		w.cfg.MachineFactory()().Engine(), w.d.Shards(), w.maxBatch.Load(), st.CapBytes)
}

// close stops the clients and the daemon; Daemon.Close waits for its
// goroutines.
func (w *mrsdWatch) close() {
	for _, cl := range w.clients {
		cl.Close()
	}
	w.clients = nil
	if w.d != nil {
		w.d.Close()
		w.d = nil
	}
}

// cpuSeconds is the CPU time, user and system, that every thread of this
// process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
