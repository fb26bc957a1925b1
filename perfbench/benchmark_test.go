package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// benchmark prints in step: same names, units and directions, in order,
// and a runnable workload for every name listed.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if spec.EndToEnd[i] != m {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, benchmark %+v", i, spec.EndToEnd[i], m)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if spec.PerLayer[i] != m.metricDef {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, benchmark %+v", i, spec.PerLayer[i], m.metricDef)
		}
	}
}

// TestLedgerSelfTime checks the self-time reduction on hand-made spans: a
// request root with two children, one of which has a child of its own, and
// a daemon-side span kept apart.
func TestLedgerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 0, Parent: -1, Req: 0, Layer: harness, Start: 0, End: 100},
		{ID: 1, Parent: 0, Req: 0, Layer: "machine", Start: 10, End: 60},
		{ID: 2, Parent: 1, Req: 0, Layer: "monitor", Start: 20, End: 30},
		{ID: 3, Parent: 0, Req: 0, Layer: "mrsnet", Start: 70, End: 90},
		{ID: 4, Parent: -1, Req: daemonReq, Layer: "bench", Start: 72, End: 80},
	}
	rows, daemon, total := tr.ledger()
	want := map[string]time.Duration{harness: 30, "machine": 40, "monitor": 10, "mrsnet": 20}
	if len(rows) != len(layers) {
		t.Fatalf("ledger rows %+v, want one per layer", rows)
	}
	for _, r := range rows {
		calls := 0
		if want[r.Layer] != 0 {
			calls = 1
		}
		if r.Self != want[r.Layer] || r.Calls != calls {
			t.Errorf("%s: self %v calls %d, want %v and %d", r.Layer, r.Self, r.Calls, want[r.Layer], calls)
		}
	}
	if total != 100 {
		t.Errorf("request-side self times sum to %v, want the root's 100", total)
	}
	if len(daemon) != 1 || daemon[0].Self != 8 {
		t.Errorf("daemon-side rows %+v, want one bench row of 8", daemon)
	}
	// Two more overlapping requests after a gap: the union counts the
	// overlap once.
	tr.spans = append(tr.spans,
		span{ID: 5, Parent: -1, Req: 1, Layer: harness, Start: 200, End: 260},
		span{ID: 6, Parent: -1, Req: 2, Layer: harness, Start: 240, End: 300},
	)
	if got := tr.busy(); got != 200 {
		t.Errorf("busy %v, want 100 + 100", got)
	}
}

// TestTracerNested records real spans through a request and checks parents
// and the nil-tracer no-op path.
func TestTracerNested(t *testing.T) {
	tr := newTracer()
	rq := tr.request(7)
	outer := rq.begin("harness.cell")
	inner := rq.begin("machine.Run")
	rq.observe("machine.sim_instrs", 42)
	rq.end(inner)
	rq.end(outer)
	if got := tr.spans[inner]; got.Parent != outer || got.Req != 7 || got.Layer != "machine" {
		t.Errorf("inner span %+v", got)
	}
	if got := tr.observations("machine.sim_instrs"); len(got) != 1 || got[0] != 42 {
		t.Errorf("observations %v", got)
	}
	var off *Tracer
	nrq := off.request(1)
	nrq.end(nrq.begin("machine.Run"))
	nrq.observe("x", 1)
	off.observe("x", 1)
}
