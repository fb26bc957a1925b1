package main

import (
	"math/rand/v2"
	"testing"
	"time"

	"databreak/internal/workload"
)

// TestSchedule checks the open-loop schedule: the session count, arrivals
// sorted within n/rate seconds, every block holding each (workload, region
// kind) pair once, a quarter of each block churning, every pair churning
// once in four blocks, and the same seed giving the same schedule.
func TestSchedule(t *testing.T) {
	w := &mrsdWatch{programs: workload.All(1)}
	const seconds = 60
	specs := w.schedule(rand.New(rand.NewPCG(7, 1)), seconds)
	block := 2 * len(w.programs)
	if want := int(seconds * sessionRate); len(specs) < want || len(specs) >= want+block || len(specs)%block != 0 {
		t.Fatalf("%d sessions, want %d rounded up to whole blocks of %d", len(specs), want, block)
	}
	span := time.Duration(float64(len(specs)) / sessionRate * float64(time.Second))
	for i, s := range specs {
		if s.due < 0 || s.due > span || (i > 0 && s.due < specs[i-1].due) {
			t.Fatalf("session %d due at %v: not sorted within [0, %v]", i, s.due, span)
		}
	}
	churned := map[sessionKind]int{}
	for b := 0; b < len(specs); b += block {
		if b%(4*block) == 0 {
			for k, n := range churned {
				if n != 1 {
					t.Fatalf("blocks before %d: %+v churned %d times, want once", b, k, n)
				}
			}
			churned = map[sessionKind]int{}
		}
		seen := map[sessionKind]bool{}
		churn := 0
		for _, s := range specs[b : b+block] {
			seen[s.sessionKind] = true
			if s.churn {
				churn++
				churned[s.sessionKind]++
			}
		}
		if len(seen) != block || churn != block/4 {
			t.Fatalf("block at %d: %d distinct kinds, %d churning; want %d and %d", b, len(seen), churn, block, block/4)
		}
	}
	again := w.schedule(rand.New(rand.NewPCG(7, 1)), seconds)
	for i := range specs {
		if specs[i] != again[i] {
			t.Fatalf("same seed, session %d differs: %+v vs %+v", i, specs[i], again[i])
		}
	}
	if short := w.schedule(rand.New(rand.NewPCG(7, 1)), 1); len(short) < minSessions {
		t.Fatalf("%d sessions in a short run, want at least %d", len(short), minSessions)
	}
}
