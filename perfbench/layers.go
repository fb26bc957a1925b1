package main

import (
	"fmt"

	"databreak/internal/asm"
	"databreak/internal/elim"
	"databreak/internal/machine"
	"databreak/internal/minic"
	"databreak/internal/monitor"
	"databreak/internal/patch"
)

// This file holds the benchmark's calls into the program's packages, each
// wrapped in a span named after the package function it times. Every
// workload builds and runs through these functions, so the traced run sees
// the same calls the untraced run makes.

// variant is one way of building a workload: a patch strategy (with or
// without read checks) or an elimination mode.
type variant struct {
	Name  string
	Patch *patch.Options // nil for an elimination variant
	Elim  elim.Mode
}

// monitorConfig is the monitor geometry a variant's program is built for
// and run under: the default, with the flag bit the segment-cache
// strategies need (as the mrsbench table drivers and mrsd set it).
func (v variant) monitorConfig() monitor.Config {
	mcfg := monitor.DefaultConfig
	if v.Patch != nil && (v.Patch.Strategy == patch.Cache || v.Patch.Strategy == patch.CacheInline) {
		mcfg.Flags = true
	}
	return mcfg
}

func patchVariant(s patch.Strategy, reads bool) variant {
	name := s.String()
	if reads {
		name += "+reads"
	}
	return variant{Name: name, Patch: &patch.Options{Strategy: s, CheckReads: reads}}
}

func elimVariant(m elim.Mode) variant {
	return variant{Name: "elim-" + m.String(), Elim: m}
}

// compile is minic.Compile then asm.Parse: workload source to an assembly
// unit.
func compile(rq *req, name, src string) (*asm.Unit, error) {
	sp := rq.begin("minic.Compile")
	text, err := minic.Compile(src)
	rq.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", name, err)
	}
	rq.observe("minic.asm_kb", float64(len(text))/1024)
	sp = rq.begin("asm.Parse")
	u, err := asm.Parse(name+".s", text)
	rq.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", name, err)
	}
	return u, nil
}

// built is one assembled variant and its static counts.
type built struct {
	Prog *asm.Program
	Elim *elim.Result // elimination variants only
	// Static is the number of checks the rewrite inserted (patch) or
	// removed (elim).
	Static int
}

// rewrite applies the variant to u, which it consumes, and assembles the
// result.
func rewrite(rq *req, u *asm.Unit, v variant) (built, error) {
	var units []*asm.Unit
	var b built
	if v.Patch != nil {
		opts := *v.Patch
		opts.Monitor = v.monitorConfig()
		sp := rq.begin("patch.Apply")
		res, err := patch.Apply(opts, u)
		rq.end(sp)
		if err != nil {
			return built{}, fmt.Errorf("%s: patch: %w", v.Name, err)
		}
		units, b.Static = res.Units, res.StaticWrites+res.StaticReads
		rq.observe("patch.static_checks", float64(b.Static))
	} else {
		sp := rq.begin("elim.Apply")
		res, err := elim.Apply(elim.Options{Mode: v.Elim, Monitor: v.monitorConfig()}, u)
		rq.end(sp)
		if err != nil {
			return built{}, fmt.Errorf("%s: elim: %w", v.Name, err)
		}
		units, b.Elim = res.Units, res
		b.Static = res.StaticSym + res.StaticLI + res.StaticRange
		rq.observe("elim.static_removed", float64(b.Static))
	}
	sp := rq.begin("asm.Assemble")
	prog, err := asm.Assemble(asm.Options{AddStartup: true}, units...)
	rq.end(sp)
	if err != nil {
		return built{}, fmt.Errorf("%s: assemble: %w", v.Name, err)
	}
	rq.observe("asm.text_instrs", float64(len(prog.Text)))
	b.Prog = prog
	return b, nil
}

// ready makes a freshly assembled program ready to run the way every
// consumer's first use does: Program.Image (predecode and trace build),
// then a first LoadShared onto a default machine.
func ready(rq *req, prog *asm.Program, newMachine func() *machine.Machine) {
	sp := rq.begin("machine.Image")
	prog.Image()
	rq.end(sp)
	m := makeMachine(rq, newMachine)
	sp = rq.begin("machine.FirstAttach")
	prog.LoadShared(m)
	rq.end(sp)
}

// makeMachine calls the bench.Config machine factory.
func makeMachine(rq *req, newMachine func() *machine.Machine) *machine.Machine {
	sp := rq.begin("bench.MachineFactory")
	m := newMachine()
	rq.end(sp)
	return m
}

// outcome is what one execution produced, reduced to the values the
// benchmark checks.
type outcome struct {
	Cycles, Instrs, Hits int64
	Output               string
}

// runBaseline runs the unpatched program on a fresh machine with no monitor
// service, as the table drivers' baseline does.
func runBaseline(rq *req, prog *asm.Program, newMachine func() *machine.Machine) (outcome, error) {
	m := makeMachine(rq, newMachine)
	sp := rq.begin("machine.LoadShared")
	prog.LoadShared(m)
	rq.end(sp)
	sp = rq.begin("machine.Run")
	_, err := m.Run()
	rq.end(sp)
	if err != nil {
		return outcome{}, err
	}
	if rq != nil {
		observeMachine(rq, m)
	}
	return outcome{Cycles: m.Cycles(), Instrs: m.Instrs(), Output: m.Output()}, nil
}

// regionSetup installs a run's monitored regions on svc.
type regionSetup func(rq *req, svc *monitor.Service) error

// regionOp times one monitor region operation (create, delete or Reinstall).
func regionOp(rq *req, fn func() error) error {
	sp := rq.begin("monitor.RegionOp")
	err := fn()
	rq.end(sp)
	return err
}

// execute runs prog on a fresh machine from newMachine under a monitor
// service with the given regions. With watch set, elim's runtime arms the
// named global's eliminated checks and then creates its region, as the
// paper's PreMonitor does; the machine.Patch span covers both.
func execute(rq *req, prog *asm.Program, er *elim.Result, mcfg monitor.Config,
	regions regionSetup, watch string, newMachine func() *machine.Machine) (outcome, error) {
	m := makeMachine(rq, newMachine)
	sp := rq.begin("machine.LoadShared")
	prog.LoadShared(m)
	rq.end(sp)
	sp = rq.begin("monitor.NewService")
	svc, err := monitor.NewService(mcfg, m)
	rq.end(sp)
	if err != nil {
		return outcome{}, err
	}
	var rt *elim.Runtime
	if er != nil {
		rt = elim.NewRuntime(m, prog, er)
		if rq != nil {
			// Range and loop-invariant hits arm sites from inside the run;
			// time them as arming calls too.
			arm := m.OnRangeHit
			m.OnRangeHit = func(id int32) {
				sp := rq.begin("machine.Patch")
				arm(id)
				rq.end(sp)
			}
		}
	}
	if regions != nil {
		if err := regions(rq, svc); err != nil {
			return outcome{}, err
		}
	}
	if watch != "" {
		sp := rq.begin("machine.Patch")
		err := rt.PreMonitorSymbol(svc, watch)
		rq.end(sp)
		if err != nil {
			return outcome{}, err
		}
	}
	if err := regionOp(rq, func() error { svc.Reinstall(); return nil }); err != nil {
		return outcome{}, err
	}
	sp = rq.begin("machine.Run")
	_, err = m.Run()
	rq.end(sp)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{Cycles: m.Cycles(), Instrs: m.Instrs(), Hits: svc.HitCount, Output: m.Output()}
	if rq != nil {
		observeRun(rq, prog, m, o, er != nil)
	}
	return o, nil
}

// observeMachine records the simulated counts of one finished run.
func observeMachine(rq *req, m *machine.Machine) {
	rq.observe("machine.sim_instrs", float64(m.Instrs()))
	rq.observe("machine.sim_cycles", float64(m.Cycles()))
	cs := m.CacheStats()
	rq.observe("cache.accesses", float64(cs.TotalAccesses()))
	rq.observe("cache.misses", float64(cs.TotalMisses()))
}

// observeRun records the per-layer counters of one finished monitored run.
func observeRun(rq *req, prog *asm.Program, m *machine.Machine, o outcome, elimRun bool) {
	observeMachine(rq, m)
	rq.observe("monitor.hits", float64(o.Hits))
	rq.observe("patch.dyn_checks", float64(prog.Counter(m, patch.CounterChecks)))
	if elimRun {
		// Table 2's denominator: every dynamic write either ran its check
		// or had it eliminated.
		removed := prog.Counter(m, elim.CounterElimSym) + prog.Counter(m, elim.CounterElimLI) +
			prog.Counter(m, elim.CounterElimRange)
		rq.observe("elim.dyn_removed", float64(removed))
		rq.observe("elim.dyn_writes", float64(removed+prog.Counter(m, patch.CounterChecks)))
	}
}
