package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	p, err := percentile(seq(100), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if p.Value != 90 || p.N != 100 || p.Beyond != 10 {
		t.Fatalf("p90 of 1..100 = %+v, want value 90, n 100, 10 beyond", p)
	}
	p, err = percentile(seq(160), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Value != 80 || p.Beyond != 80 {
		t.Fatalf("p50 of 1..160 = %+v, want value 80, 80 beyond", p)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// 99 samples leave 9 beyond p90: the old BENCH_mrsd.json "p99" over 20
	// samples was the maximum, and this is the guard against repeating it.
	if _, err := percentile(seq(99), 0.9); err == nil {
		t.Fatal("p90 over 99 samples accepted")
	}
	if _, err := percentile(seq(20), 0.99); err == nil {
		t.Fatal("p99 over 20 samples accepted")
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Fatal("p50 over 19 samples accepted")
	}
	if _, err := percentile(seq(20), 0.5); err != nil {
		t.Fatalf("p50 over 20 samples refused: %v", err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing is not NaN")
	}
}

func TestBacklogGrew(t *testing.T) {
	flat := make([]float64, 160)
	for i := range flat {
		flat[i] = float64(i % 3) // 0,1,2: an ordinary backlog below capacity
	}
	if first, last, grew := backlogGrew(flat); grew {
		t.Fatalf("flat backlog flagged: first %v last %v", first, last)
	}
	// Bunched arrivals late in a run below capacity: the first quarter
	// averages under one session in flight, the last 2.
	bunched := make([]float64, 100)
	for i := 0; i < 25; i++ {
		if i%3 == 2 {
			bunched[i] = 2
		}
		bunched[75+i] = 2
	}
	if first, last, grew := backlogGrew(bunched); grew {
		t.Fatalf("bunched backlog below capacity flagged: first %v last %v", first, last)
	}
	ramp := make([]float64, 160)
	for i := range ramp {
		ramp[i] = float64(i) / 8 // over capacity: one more waiter every 8 arrivals
	}
	if first, last, grew := backlogGrew(ramp); !grew {
		t.Fatalf("growing backlog not flagged: first %v last %v", first, last)
	}
	if _, _, grew := backlogGrew([]float64{5, 9, 12}); grew {
		t.Fatal("too few samples to judge, but flagged")
	}
}

func TestByMedian(t *testing.T) {
	times := map[string][]float64{
		"a": {0.010, 0.030, 0.011}, // one slow run of 30 ms
		"b": {0.020, 0.020, 0.020},
	}
	rate, lat := byMedian(times)
	if want := 2 / 0.031; math.Abs(rate-want) > 1e-9 {
		t.Errorf("rate %v, want %v", rate, want)
	}
	if len(lat) != 6 {
		t.Fatalf("%d latencies, want one per run", len(lat))
	}
	for _, l := range lat {
		if l != 11 && l != 20 {
			t.Errorf("latency %v ms is not an operation's median", l)
		}
	}
}
