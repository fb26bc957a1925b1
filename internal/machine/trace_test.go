package machine

import (
	"reflect"
	"strings"
	"testing"

	"databreak/internal/cache"
	"databreak/internal/sparc"
)

// countLoop is a small store/increment loop every trace-tier test can share:
// long enough (100 iterations) to cross the lazy hotThreshold, fused-pair
// friendly, and deterministic.
func countLoop() []sparc.Instr {
	return []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		{Op: sparc.St, Rd: sparc.O1, Rs1: sparc.L0, UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
		sparc.RI(sparc.Subcc, sparc.O1, 100, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
}

// TestImageTracesSurviveSiblingPatch pins the COW invariant for the trace
// tier: a machine that patches text on a shared image drops the IMAGE's
// compiled traces for itself only — its sibling keeps executing the
// immutable image traces, slice-identical to the image's own, and still
// produces counts bit-identical to a fresh Step reference.
func TestImageTracesSurviveSiblingPatch(t *testing.T) {
	text := countLoop()
	img := BuildImage(text, 0)
	if img.traces[1] == nil {
		t.Fatal("BuildImage did not compile the loop head")
	}

	m1 := New(cache.DefaultConfig, DefaultCosts)
	m2 := New(cache.DefaultConfig, DefaultCosts)
	m1.LoadImage(img)
	m2.LoadImage(img)
	if reflect.ValueOf(m2.traces).Pointer() != reflect.ValueOf(img.traces).Pointer() {
		t.Fatal("shared machine does not execute the image's traces")
	}

	// m1 patches before running: +3 stride instead of +1.
	if err := m1.PatchInstr(2, sparc.RI(sparc.Add, sparc.O1, 3, sparc.O1)); err != nil {
		t.Fatalf("patch: %v", err)
	}
	if m1.imgShared {
		t.Fatal("patching machine still shared")
	}
	if reflect.ValueOf(m1.traces).Pointer() == reflect.ValueOf(img.traces).Pointer() {
		t.Fatal("patching machine still holds the image's trace slice")
	}
	for i, tr := range m1.traces {
		if tr != nil {
			t.Fatalf("private trace slice has a stale compiled entry at %d", i)
		}
	}

	// The sibling is untouched: same trace slice, and its run matches a
	// fresh Step-only reference on the ORIGINAL text.
	if reflect.ValueOf(m2.traces).Pointer() != reflect.ValueOf(img.traces).Pointer() {
		t.Fatal("sibling lost the image's traces after the patch")
	}
	ref := New(cache.DefaultConfig, DefaultCosts)
	ref.LoadText(text, 0)
	errRef := stepAll(ref)
	_, err2 := m2.Run()
	diffStates(t, "sibling after COW patch", ref, m2, errRef, err2)

	// And the patching machine matches a Step reference on the PATCHED text.
	patched := countLoop()
	patched[2] = sparc.RI(sparc.Add, sparc.O1, 3, sparc.O1)
	ref2 := New(cache.DefaultConfig, DefaultCosts)
	ref2.LoadText(patched, 0)
	errRef2 := stepAll(ref2)
	_, err1 := m1.Run()
	diffStates(t, "patcher after COW patch", ref2, m1, errRef2, err1)
}

// TestEngineSelection pins the engine flag surface: parsing, String, and
// that all three engines produce identical counts on the same program.
func TestEngineSelection(t *testing.T) {
	for _, c := range []struct {
		s string
		e Engine
	}{{"step", EngineStep}, {"block", EngineBlock}, {"trace", EngineTrace}} {
		e, err := ParseEngine(c.s)
		if err != nil || e != c.e {
			t.Fatalf("ParseEngine(%q) = %v, %v", c.s, e, err)
		}
		if e.String() != c.s {
			t.Fatalf("Engine(%v).String() = %q, want %q", e, e.String(), c.s)
		}
	}
	for _, s := range []string{"jit", "closure"} {
		_, err := ParseEngine(s)
		if err == nil || !strings.Contains(err.Error(), "want step, block, or trace") {
			t.Fatalf("ParseEngine(%q) err = %v, want the step, block, or trace refusal", s, err)
		}
	}

	text := countLoop()
	var ref *Machine
	for _, e := range []Engine{EngineStep, EngineBlock, EngineTrace} {
		m := New(cache.DefaultConfig, DefaultCosts)
		m.SetEngine(e)
		m.LoadText(text, 0)
		if _, err := m.Run(); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if ref == nil {
			ref = m
			continue
		}
		diffStates(t, "engine "+e.String(), ref, m, nil, nil)
	}
}
