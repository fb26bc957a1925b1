package machine

import (
	"math/rand"
	"slices"
	"testing"

	"databreak/internal/sparc"
)

// TestTraceStorageRandomPrograms holds the traces of the random differential
// programs to the storage contract (checkTraces): eagerly compiled image
// traces, and the private traces the trace engine compiles lazily at
// threshold 1 while matching Step. After every lazy compile the machine's
// scratch must be clean again.
func TestTraceStorageRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		text := randText(r, 80+r.Intn(400))
		img := BuildImage(text, 0)
		if n, err := checkTraces(img.traces, len(img.text)); err != nil {
			t.Fatalf("seed %d image: %v", seed, err)
		} else if n == 0 {
			t.Fatalf("seed %d: image compiled no trace", seed)
		}

		b := diffRun(t, "storage", text)
		n, err := checkTraces(b.traces, len(b.text))
		if err != nil {
			t.Fatalf("seed %d private: %v", seed, err)
		}
		if n == 0 {
			t.Fatalf("seed %d: no private trace compiled", seed)
		}
		if i := slices.Index(b.traceScratch.consumed, true); i >= 0 {
			t.Fatalf("seed %d: scratch still marks index %d after compiling", seed, i)
		}
	}
}

// TestTraceSpansReentry compiles a trace whose stitched run re-enters code
// it already consumed: the head at 5 runs to the ba at 10, which stitches
// back to 2, and the run from 2 crosses 5..9 again before the walk stops at
// the consumed ba. The duplicate touches must merge into one span.
func TestTraceSpansReentry(t *testing.T) {
	text := make([]sparc.Instr, 0, 12)
	for i := 0; i < 10; i++ {
		text = append(text, sparc.RI(sparc.Add, sparc.L0, 1, sparc.L0))
	}
	text = append(text, sparc.Branch(sparc.BA, 2))
	text = append(text, sparc.Instr{Op: sparc.Ta, Imm: TrapExit, UseImm: true})
	uops := buildUops(text, nil)
	var sc traceScratch
	tr := compileTrace(text, uops, 5, nil, brProfMin, defaultLineShift(), &sc)
	if tr == nil {
		t.Fatal("no trace compiled at head 5")
	}
	fifth := 0
	for _, u := range tr.ops {
		if u.op != tEnd && u.iaddr == TextBase+5*4 {
			fifth++
		}
	}
	if fifth != 2 {
		t.Fatalf("index 5 compiled %d times, want 2 (the stitched run must re-enter it)", fifth)
	}
	if want := [][2]int32{{2, 11}}; !slices.Equal(tr.spans, want) {
		t.Fatalf("spans %v, want %v", tr.spans, want)
	}
	if _, err := checkTraces([]*traceProg{tr}, len(text)); err != nil {
		t.Fatal(err)
	}
	if i := slices.Index(sc.consumed, true); i >= 0 {
		t.Fatalf("scratch still marks index %d", i)
	}
}

// TestSpansOfMergesUnsortedDuplicates pins spansOf against the reference
// mask scan on a touched list that is out of order, repeats indices, and
// has adjacent runs that must merge.
func TestSpansOfMergesUnsortedDuplicates(t *testing.T) {
	touched := []int32{7, 8, 2, 3, 7, 4, 12, 5, 6, 12, 14}
	mask := make([]bool, 16)
	for _, i := range touched {
		mask[i] = true
	}
	got := spansOf(slices.Clone(touched))
	if want := refSpans(mask); !slices.Equal(got, want) {
		t.Fatalf("spansOf = %v, reference %v", got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("spans len %d cap %d", len(got), cap(got))
	}
}
