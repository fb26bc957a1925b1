package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it. With fewer, the "percentile" is one of the few
// largest samples and says more about luck than about the tail.
const minBeyond = 10

// pctile is a nearest-rank percentile together with the sample count it
// came from.
type pctile struct {
	Value  float64
	N      int // samples
	Beyond int // samples strictly above the percentile's rank
}

func (p pctile) String() string {
	return fmt.Sprintf("%.3f (n=%d, %d beyond)", p.Value, p.N, p.Beyond)
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses when fewer than minBeyond samples lie beyond the rank: p90 needs
// at least 100 samples, p50 at least 20.
func percentile(xs []float64, q float64) (pctile, error) {
	n := len(xs)
	if q <= 0 || q >= 1 {
		return pctile{}, fmt.Errorf("percentile %v: want 0 < q < 1", q)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	if beyond < minBeyond {
		return pctile{N: n, Beyond: beyond}, fmt.Errorf(
			"p%g over %d samples has %d beyond it; need at least %d", 100*q, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return pctile{Value: s[rank-1], N: n, Beyond: beyond}, nil
}

// pctileLine is a report line for a percentile, or for its refusal: a run
// whose failures leave too few samples still reports, with the failures
// counted, instead of stopping.
func pctileLine(name string, xs []float64, q float64) string {
	p, err := percentile(xs, q)
	if err != nil {
		return fmt.Sprintf("%s refused: %v", name, err)
	}
	return fmt.Sprintf("%s %s", name, p)
}

// median is the middle of xs (the mean of the two middles for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// byMedian reduces timings, in seconds per run of each distinct operation,
// to a throughput and per-run latencies. Every operation is timed by its
// median over the run: the two-core hosts this runs on have slow spells of
// a few seconds in which the same simulation takes up to twice as long, and
// a median over runs spread across the timed phase keeps them out.
// Throughput is distinct operations per second of their median times;
// latencies are those medians, one per run, in ms.
func byMedian[K comparable](times map[K][]float64) (opsPerSec float64, latencies []float64) {
	var sum float64
	for _, ts := range times {
		m := median(ts)
		sum += m
		for range ts {
			latencies = append(latencies, 1000*m)
		}
	}
	return float64(len(times)) / sum, latencies
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// backlogGrew reports whether an open-loop run fell behind: the mean
// in-flight backlog over the last quarter of the arrivals exceeds twice the
// first quarter's plus two sessions. Below capacity the backlog fluctuates
// around a constant; above it, it grows with every arrival, and the run
// measures the queue instead of the system. The slack keeps the ordinary
// fluctuation from tripping the check: at a third of capacity, bunched
// arrivals behind second-long hit-dense sessions, or a few slow seconds of
// the host, lift a quarter's mean from under one session to two. A run
// above capacity ends with a backlog of ten and more.
func backlogGrew(inFlight []float64) (first, last float64, grew bool) {
	q := len(inFlight) / 4
	if q == 0 {
		return 0, 0, false
	}
	first = mean(inFlight[:q])
	last = mean(inFlight[len(inFlight)-q:])
	return first, last, last > 2*first+2
}
