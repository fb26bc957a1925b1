// Command perfbench is the repository's benchmark: one command that runs
// one seeded workload end to end, checks every output, and prints its
// metrics. See README.md for the workloads, the metrics and how they
// relate.
//
//	perfbench --workload tables --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end metrics; with --trace 1 they are the per-layer
// metrics of a traced run, and the lines before it hold the layer ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// setupReps is how many times a run repeats its set-up. setup_s is the sum
// over set-up steps of each step's median over the repetitions, which keeps
// a slow spell of the host (a cold page cache, a neighbour's burst) out of
// the figure even when it covers only part of one repetition.
const setupReps = 5

// stepTimes holds, for every named set-up step, its time in seconds in
// each repetition.
type stepTimes map[string][]float64

// step runs fn as the set-up step name and records its time.
func (st stepTimes) step(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	st[name] = append(st[name], time.Since(start).Seconds())
	return err
}

// total is the sum over steps of each step's median time.
func (st stepTimes) total() float64 {
	var sum float64
	for _, ts := range st {
		sum += median(ts)
	}
	return sum
}

// workloadRunner is one workload: a set-up, repeated setupReps times, and a
// timed phase that runs against the last set-up.
type workloadRunner interface {
	// setup does everything before timing starts, timing each of its
	// steps in st under a name that is the same in every repetition. It
	// may be called more than once; each call replaces the previous state.
	setup(tr *Tracer, st stepTimes) error
	// timed runs the measured phase for about seconds, with spans when tr
	// is non-nil.
	timed(tr *Tracer, rng *rand.Rand, seconds float64) (phase, error)
	// defaults describes the shipped defaults the run used.
	defaults() string
	close()
}

// phase is what a timed phase measured.
type phase struct {
	Attempted, Failed int
	// OpsPerSec is completed operations per second; OpTime holds one
	// latency per operation in ms.
	OpsPerSec float64
	OpTime    []float64
	// MeanOp is the mean of the per-operation medians, used to price
	// tracing.
	MeanOp time.Duration
	Wall   time.Duration
	// Valid is false when an open-loop phase fell behind its schedule.
	Valid bool
	// Report holds the workload's own result lines.
	Report []string
}

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics every untraced run prints, on every workload.
// Operation latencies are reported (op_p50_ms, op_p90_ms and the
// workloads' own percentiles) but not listed: mrsd-watch's session
// latencies move by up to a quarter between runs of the same code on the
// two-core hosts this runs on, more than any bound could absorb.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"heap_peak_mb", "MB", "lower"},
	{"ops_per_s", "1/s", "higher"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: tables, mrsd-watch or build")
	seed := flag.Uint64("seed", 1, "seed for cell order, session arrivals and session mix")
	seconds := flag.Float64("seconds", 15, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string) (workloadRunner, error) {
	switch name {
	case "tables":
		return &tables{}, nil
	case "mrsd-watch":
		return &mrsdWatch{}, nil
	case "build":
		return &builds{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want tables, mrsd-watch or build)", name)
}

func run(name string, seed uint64, seconds float64, traced bool) error {
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	defer w.close()
	var tr *Tracer
	if traced {
		tr = newTracer()
	}

	var setups []float64
	steps := stepTimes{}
	setupStart := time.Now()
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := w.setup(tr, steps); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	setupWall := time.Since(setupStart)
	fmt.Printf("workload %s, seed %d, %g s\n", name, seed, seconds)
	fmt.Printf("setup_s %.4f (sum over %d steps of their medians over %d set-ups; whole set-ups %.4f)\n",
		steps.total(), len(steps), setupReps, setups)

	// The untraced phase gives the end-to-end metrics. A traced run repeats
	// it with spans on the same seed and prices the tracing as the
	// difference.
	runtime.GC()
	heap := startHeapPeak()
	plain, err := w.timed(nil, rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)), seconds)
	peak := heap.stop()
	if err != nil {
		return err
	}
	fmt.Printf("defaults: %s\n", w.defaults())
	for _, line := range plain.Report {
		fmt.Println(line)
	}
	if !plain.Valid {
		fmt.Println("INVALID: the backlog grew over the run; the offered rate is above capacity")
	}

	res := result{
		Correct:   plain.Failed == 0 && plain.Valid,
		Attempted: plain.Attempted,
		Failed:    plain.Failed,
		Metrics:   map[string]metricValue{},
	}
	if !traced {
		fmt.Println(pctileLine("op_p50_ms", plain.OpTime, 0.5))
		fmt.Println(pctileLine("op_p90_ms", plain.OpTime, 0.9))
		okFrac := 1 - float64(plain.Failed)/float64(plain.Attempted)
		fmt.Printf("failed_frac %v (%d of %d)\n", 1-okFrac, plain.Failed, plain.Attempted)
		vals := map[string]float64{
			"setup_s":      steps.total(),
			"ok_frac":      okFrac,
			"heap_peak_mb": peak / 1e6,
			"ops_per_s":    plain.OpsPerSec,
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
		}
	} else {
		tracedPhase, err := w.timed(tr, rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)), seconds)
		if err != nil {
			return err
		}
		res.Correct = res.Correct && tracedPhase.Failed == 0 && tracedPhase.Valid
		res.Attempted += tracedPhase.Attempted
		res.Failed += tracedPhase.Failed
		over := tracedPhase.MeanOp - plain.MeanOp
		overhead := fmt.Sprintf("%+.1f us per operation (%+.2f%%): traced %.3f ms, untraced %.3f ms mean operation",
			float64(over)/1e3, 100*float64(over)/float64(plain.MeanOp), ms(tracedPhase.MeanOp), ms(plain.MeanOp))
		tr.writeLedger(os.Stdout, []phaseTime{{"setup", setupWall}, {"timed", tracedPhase.Wall}}, overhead)
		for _, m := range perLayer {
			v, err := m.value(tr)
			if err != nil {
				return fmt.Errorf("%s: %w", m.Name, err)
			}
			res.Metrics[m.Name] = metricValue{v, m.Unit}
			fmt.Printf("  %-28s %14.6g %s\n", m.Name, v, m.Unit)
		}
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := tr.writeSpans(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// heapPeak samples the Go heap every millisecond while a timed phase runs.
type heapPeak struct {
	done chan struct{}
	wg   sync.WaitGroup
	// peaks is the largest heap in use seen in each garbage-collection
	// cycle, by cycle number.
	peaks map[uint64]float64
}

// heapSample is live and not-yet-swept heap objects: the heap in use.
const heapSample = "/memory/classes/heap/objects:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{done: make(chan struct{}), peaks: map[uint64]float64{}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapSample}, {Name: "/gc/cycles/total:gc-cycles"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			v, cycle := float64(s[0].Value.Uint64()), s[1].Value.Uint64()
			if v > h.peaks[cycle] {
				h.peaks[cycle] = v
			}
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes: the median over the
// phase's collection cycles of each cycle's largest heap in use. The heap
// is a sawtooth that peaks just before each collection; the highest single
// tooth is the one that caught a rare overlap of large transients, and
// moved by a fifth between runs of the same code, while the typical tooth
// repeats to a percent.
func (h *heapPeak) stop() float64 {
	close(h.done)
	h.wg.Wait()
	var peaks []float64
	for _, v := range h.peaks {
		peaks = append(peaks, v)
	}
	return median(peaks)
}
