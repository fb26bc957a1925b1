package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file is the traced run's span recorder. Spans are recorded only
// around the benchmark's own calls into the program's packages; a span's
// layer is the package it calls (the part of the op name before the dot),
// and "harness" marks the benchmark's own work. Spans stay in memory and
// are written out once, at exit. A nil *Tracer and a nil *req record
// nothing, so the untraced run pays one nil check per call site.

// harness is the layer name of the benchmark's own spans: one root span per
// request (a table cell, an mrsd session, a build) and one per set-up.
const harness = "harness"

// daemonReq marks spans recorded inside the daemon, on its goroutines
// (ProgramSource and MachineFactory run there during attach). They cannot
// be tied to the session whose mrsnet.attach round trip contains them, so
// the ledger reports them apart instead of nesting them.
const daemonReq = -1

// setupReq marks the spans of set-up work.
const setupReq = -2

// span is one timed call. Start and End are nanoseconds since the tracer
// started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 at a request's root
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer holds every span and every named observation of a traced run.
type Tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	obs   map[string][]float64
}

func newTracer() *Tracer {
	return &Tracer{t0: time.Now(), obs: make(map[string][]float64)}
}

// req is one request's span stack. A request runs on one goroutine, so its
// spans nest; the stack gives each new span its parent.
type req struct {
	tr    *Tracer
	id    int
	stack []int
}

// request starts a request's span stack; nil when tracing is off.
func (t *Tracer) request(id int) *req {
	if t == nil {
		return nil
	}
	return &req{tr: t, id: id}
}

// begin opens a span named op ("layer.Call") and returns its handle.
func (r *req) begin(op string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	layer, _, _ := strings.Cut(op, ".")
	t := r.tr
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: r.id, Layer: layer, Op: op,
		Start: int64(time.Since(t.t0)),
	})
	t.mu.Unlock()
	r.stack = append(r.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *req) end(id int) {
	if r == nil {
		return
	}
	t := r.tr
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
	r.stack = r.stack[:len(r.stack)-1]
}

// observe records a named per-layer quantity (a size, a count).
func (r *req) observe(name string, v float64) {
	if r == nil {
		return
	}
	r.tr.observe(name, v)
}

func (t *Tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.obs[name] = append(t.obs[name], v)
	t.mu.Unlock()
}

// observations returns a copy of the named observations.
func (t *Tracer) observations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.obs[name]...)
}

// opDurations returns the durations of every closed span named op.
func (t *Tracer) opDurations(op string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Op == op && s.End != 0 {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// meanOp is the mean duration of the spans named op, in units of unit; 0
// when the workload made no such call.
func (t *Tracer) meanOp(op string, unit time.Duration) float64 {
	ds := t.opDurations(op)
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / float64(unit)
}

// layerTime is one row of the ledger: a layer's self time and call count.
type layerTime struct {
	Layer string
	Self  time.Duration
	Calls int
}

// layers are the program's modules the benchmark calls, in pipeline order,
// then the benchmark itself. The ledger lists every one, so a layer a
// workload never reaches reads 0 instead of going missing.
var layers = []string{"minic", "asm", "patch", "elim", "machine", "monitor", "mrsnet", "bench", harness}

// ledger reduces the spans to per-layer self time: a span's duration minus
// its children's. Within a request spans nest and run on one goroutine, so
// children never overlap and their durations simply add. Daemon-side spans
// are reduced separately (they overlap mrsnet round trips) and only for the
// layers they touch. total is the sum of all request-side self times, which
// equals the summed duration of the root spans.
func (t *Tracer) ledger() (rows, daemon []layerTime, total time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	req := map[string]*layerTime{}
	for _, l := range layers {
		req[l] = &layerTime{Layer: l}
	}
	dmn := map[string]*layerTime{}
	for i, s := range t.spans {
		self := s.dur() - child[i]
		if s.Req == daemonReq {
			if dmn[s.Layer] == nil {
				dmn[s.Layer] = &layerTime{Layer: s.Layer}
			}
			dmn[s.Layer].Self += self
			dmn[s.Layer].Calls++
			continue
		}
		req[s.Layer].Self += self
		req[s.Layer].Calls++
		total += self
	}
	for _, l := range layers {
		rows = append(rows, *req[l])
		if lt := dmn[l]; lt != nil {
			daemon = append(daemon, *lt)
		}
	}
	return rows, daemon, total
}

// writeLedger prints the per-layer self times and call counts, the
// accounting of traced wall time, and the tracing overhead.
func (t *Tracer) writeLedger(w io.Writer, phases []phaseTime, overhead string) {
	rows, daemon, total := t.ledger()
	fmt.Fprintf(w, "layer ledger (self time = span minus child spans):\n")
	for _, lt := range rows {
		fmt.Fprintf(w, "  %-8s self %10.3f ms  calls %7d  (%5.1f%% of request time)\n",
			lt.Layer, ms(lt.Self), lt.Calls, 100*float64(lt.Self)/float64(total))
	}
	for _, lt := range daemon {
		fmt.Fprintf(w, "  %-8s self %10.3f ms  calls %7d  inside the daemon, within mrsnet.Attach round trips\n",
			lt.Layer, ms(lt.Self), lt.Calls)
	}
	var wall time.Duration
	for _, p := range phases {
		wall += p.Wall
		fmt.Fprintf(w, "  phase %-8s wall %10.3f ms\n", p.Name, ms(p.Wall))
	}
	busy := t.busy()
	fmt.Fprintf(w, "  traced wall %.3f ms = %.3f ms inside requests + %.3f ms outside (loop overhead; on an open loop, waiting for arrivals)\n",
		ms(wall), ms(busy), ms(wall-busy))
	fmt.Fprintf(w, "  sum of self times %.3f ms = sum of request spans; over the time inside requests: %.3f requests in flight on average\n",
		ms(total), float64(total)/float64(busy))
	fmt.Fprintf(w, "  tracing overhead: %s\n", overhead)
}

// busy is the wall time covered by at least one request-side root span.
func (t *Tracer) busy() time.Duration {
	t.mu.Lock()
	var roots []span
	for _, s := range t.spans {
		if s.Parent < 0 && s.Req != daemonReq {
			roots = append(roots, s)
		}
	}
	t.mu.Unlock()
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start < roots[j].Start })
	var covered time.Duration
	var end int64 = -1
	for _, s := range roots {
		switch {
		case s.Start >= end:
			covered += s.dur()
			end = s.End
		case s.End > end:
			covered += time.Duration(s.End - end)
			end = s.End
		}
	}
	return covered
}

// phaseTime is the wall time of one traced phase (set-up or timed).
type phaseTime struct {
	Name string
	Wall time.Duration
}

// writeSpans writes every span as JSON to path, creating its directory.
func (t *Tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(t.spans)
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
