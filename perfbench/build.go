package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"databreak/internal/bench"
	"databreak/internal/elim"
	"databreak/internal/machine"
	"databreak/internal/sparc"
	"databreak/internal/workload"
)

// builds takes every workload and variant from mini-C source to ready to
// run, closed loop with one caller and no simulated execution: the path of
// mrspatch and of every cold artifact-cache miss in mrsbench and mrsd.
type builds struct {
	newMachine func() *machine.Machine
	programs   []workload.Program
	variants   []variant
	// refs holds each (workload, variant)'s assembled text and static
	// count from set-up; every timed build must reproduce them exactly.
	refs map[buildKey]buildRef
}

type buildKey struct{ prog, variant int }

type buildRef struct {
	text   []sparc.Instr
	static int
}

// buildOne is one build: compile, parse, rewrite, assemble, image, first
// attach.
func (b *builds) buildOne(rq *req, k buildKey) (built, error) {
	p := b.programs[k.prog]
	u, err := compile(rq, p.Name, p.Source)
	if err != nil {
		return built{}, err
	}
	out, err := rewrite(rq, u, b.variants[k.variant])
	if err != nil {
		return built{}, fmt.Errorf("%s: %w", p.Name, err)
	}
	ready(rq, out.Prog, b.newMachine)
	return out, nil
}

func (b *builds) keys() []buildKey {
	var ks []buildKey
	for i := range b.programs {
		for v := range b.variants {
			ks = append(ks, buildKey{i, v})
		}
	}
	return ks
}

// setup makes one reference pass over every build, each build a step.
func (b *builds) setup(tr *Tracer, st stepTimes) error {
	b.newMachine = bench.DefaultConfig().MachineFactory()
	b.programs = workload.All(1)
	b.variants = nil
	for _, s := range bench.Table1Strategies {
		b.variants = append(b.variants, patchVariant(s, false))
	}
	b.variants = append(b.variants, elimVariant(elim.SymOnly), elimVariant(elim.Full))
	b.refs = map[buildKey]buildRef{}
	rq := tr.request(setupReq)
	sp := rq.begin("harness.setup")
	defer rq.end(sp)
	for _, k := range b.keys() {
		err := st.step(fmt.Sprintf("build %d/%d", k.prog, k.variant), func() error {
			out, err := b.buildOne(rq, k)
			b.refs[k] = buildRef{text: out.Prog.Text, static: out.Static}
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// minBuildPasses keeps at least two hundred builds in a run (a p90 with
// twenty samples beyond it) and three runs of every build to take its
// median over.
const minBuildPasses = 3

func (b *builds) timed(tr *Tracer, rng *rand.Rand, seconds float64) (phase, error) {
	order := b.keys()
	times := map[buildKey][]float64{}
	var ph phase
	start := time.Now()
	passes := 0
	for ; passes < minBuildPasses || time.Since(start).Seconds() < seconds; passes++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, k := range order {
			rq := tr.request(ph.Attempted)
			sp := rq.begin("harness.build")
			buildStart := time.Now()
			out, err := b.buildOne(rq, k)
			d := time.Since(buildStart)
			ph.Attempted++
			if err == nil {
				err = b.check(k, out)
			}
			if err != nil {
				ph.Failed++
				fmt.Printf("FAIL %s %s: %v\n", b.programs[k.prog].Name, b.variants[k.variant].Name, err)
			}
			rq.end(sp)
			times[k] = append(times[k], d.Seconds())
		}
	}
	ph.Wall = time.Since(start)
	ph.OpsPerSec, ph.OpTime = byMedian(times)
	ph.MeanOp = time.Duration(float64(time.Second) / ph.OpsPerSec)
	ph.Valid = true
	ph.Report = append(ph.Report, fmt.Sprintf("builds_per_s %.4f (%d builds over the sum of their median times in %d passes)",
		ph.OpsPerSec, len(order), passes))
	return ph, nil
}

// check compares a build with the set-up reference: byte-identical text and
// the same static count.
func (b *builds) check(k buildKey, out built) error {
	ref := b.refs[k]
	if !slices.Equal(out.Prog.Text, ref.text) {
		return fmt.Errorf("assembled text differs from the reference build")
	}
	if out.Static != ref.static {
		return fmt.Errorf("static count %d, reference %d", out.Static, ref.static)
	}
	return nil
}

func (b *builds) defaults() string {
	return fmt.Sprintf("engine %s (bench.DefaultConfig machine factory); no daemon, so no shards or batching; no artifact cache: every build is cold",
		b.newMachine().Engine())
}

func (b *builds) close() {}
