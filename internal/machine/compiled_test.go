package machine

import (
	"math/rand"
	"reflect"
	"testing"

	"databreak/internal/cache"
	"databreak/internal/sparc"
)

// These tests hold the trace tier to Step on the paths the plain
// differentials do not take: memory hooks that charge cycles from inside
// fused ops, traces shared by sibling machines that fault or patch while the
// other is suspended mid-run, patches of lazily compiled private traces, and
// engine switches between RunFor slices. Their names are kept from the
// retired closure tier, whose tests covered the same hazards for its code.

// compiledTraces counts the heads of m that hold a compiled trace.
func compiledTraces(m *Machine) int {
	n := 0
	for _, tr := range m.traces {
		if tr != nil {
			n++
		}
	}
	return n
}

// TestDifferentialClosureRandomPrograms runs the random-program sweep with a
// StoreHook and a LoadHook installed on both sides. The hooks charge an
// address-dependent number of cycles, so every memory op a trace retires,
// fused or not, must call its hook exactly when Step does and charge what
// it returns at the same point.
func TestDifferentialClosureRandomPrograms(t *testing.T) {
	hooked := func(m *Machine, stores, loads *int) {
		m.StoreHook = func(addr uint32, size int32) int64 {
			*stores++
			return int64(addr>>2&3) + int64(size)
		}
		m.LoadHook = func(addr uint32, size int32) int64 {
			*loads++
			return int64(addr >> 3 & 1)
		}
	}
	totalStores, totalLoads := 0, 0
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		text := randText(r, 80+r.Intn(400))
		ctx := "hooked seed " + string(rune('0'+seed%10))

		var storesA, loadsA, storesB, loadsB int
		a := New(cache.DefaultConfig, DefaultCosts)
		b := New(cache.DefaultConfig, DefaultCosts)
		a.SetCounterCount(4)
		b.SetCounterCount(4)
		b.hotThreshold = 1
		a.LoadText(text, 0)
		b.LoadText(text, 0)
		hooked(a, &storesA, &loadsA)
		hooked(b, &storesB, &loadsB)
		errA := stepAll(a)
		_, errB := b.Run()
		diffStates(t, ctx, a, b, errA, errB)
		if storesA != storesB || loadsA != loadsB {
			t.Fatalf("%s: hooks fired stores %d/%d loads %d/%d (step/trace)",
				ctx, storesA, storesB, loadsA, loadsB)
		}
		if compiledTraces(b) == 0 {
			t.Fatalf("%s: the trace engine compiled no trace", ctx)
		}
		totalStores += storesA
		totalLoads += loadsA
	}
	if totalStores == 0 || totalLoads == 0 {
		t.Fatalf("the sweep called the hooks %d (store) and %d (load) times; both must run",
			totalStores, totalLoads)
	}
}

// TestDifferentialClosureFaults runs the in-loop fault programs on a shared
// Image, whose traces are compiled when it is built: two sibling machines
// fault in turn from inside the same image traces, and each must match Step
// (same error text, pc and counts). The first machine's fault must leave
// nothing behind in the shared traces that changes the second's run.
func TestDifferentialClosureFaults(t *testing.T) {
	for _, c := range loopFaultCases() {
		t.Run(c.name, func(t *testing.T) {
			img := BuildImage(c.text, 0)
			ref := New(cache.DefaultConfig, DefaultCosts)
			ref.LoadText(c.text, 0)
			errRef := stepAll(ref)
			for i, ctx := range []string{c.name + " (first sibling)", c.name + " (second sibling)"} {
				m := New(cache.DefaultConfig, DefaultCosts)
				m.LoadImage(img)
				if compiledTraces(m) == 0 {
					t.Fatalf("%s: the image holds no compiled trace", ctx)
				}
				_, err := m.Run()
				diffStates(t, ctx, ref, m, errRef, err)
				if err == nil {
					t.Fatalf("%s: machine %d ran to completion, want a fault", ctx, i)
				}
			}
		})
	}
}

// TestDifferentialPatchInClosure interleaves two machines on one Image in
// RunFor slices. The first patches its own loop body from a StoreHook while
// a trace is executing; the second, suspended between slices in the same
// image trace, must finish on the original text with the image's traces,
// and each must match a Step run of the same program and hook.
func TestDifferentialPatchInClosure(t *testing.T) {
	text := countLoop()
	patched := sparc.RI(sparc.Add, sparc.O1, 3, sparc.O1)
	img := BuildImage(text, 0)

	mk := func(e Engine, patch bool) *Machine {
		m := New(cache.DefaultConfig, DefaultCosts)
		m.SetEngine(e)
		m.LoadImage(img)
		if patch {
			stores := 0
			m.StoreHook = func(addr uint32, size int32) int64 {
				stores++
				if stores == 5 {
					if err := m.PatchInstr(2, patched); err != nil {
						t.Fatalf("patch: %v", err)
					}
				}
				return 0
			}
		}
		return m
	}

	refPatcher, refSibling := mk(EngineStep, true), mk(EngineStep, false)
	errRefP := stepAll(refPatcher)
	errRefS := stepAll(refSibling)

	patcher, sibling := mk(EngineTrace, true), mk(EngineTrace, false)
	var errP, errS error
	for (!patcher.Halted() && errP == nil) || (!sibling.Halted() && errS == nil) {
		if !patcher.Halted() && errP == nil {
			_, _, errP = patcher.RunFor(13)
		}
		if !sibling.Halted() && errS == nil {
			_, _, errS = sibling.RunFor(13)
		}
	}
	diffStates(t, "patcher interleaved with a sibling", refPatcher, patcher, errRefP, errP)
	diffStates(t, "sibling interleaved with a patcher", refSibling, sibling, errRefS, errS)
	if patcher.imgShared {
		t.Fatal("patching machine still marked shared after PatchInstr")
	}
	if !sibling.imgShared || reflect.ValueOf(sibling.traces).Pointer() != reflect.ValueOf(img.traces).Pointer() {
		t.Fatal("sibling no longer runs the image's traces after the other machine patched")
	}
	if got := patcher.Reg(sparc.O1); got < 100 || got > 102 {
		t.Fatalf("patcher's final %%o1 = %d, want the patched +3 stride past 100", got)
	}
	if got := sibling.Reg(sparc.O1); got != 100 {
		t.Fatalf("sibling's final %%o1 = %d, want the unpatched 100", got)
	}
}

// patchPrivateFusedMem runs text twice from private text (LoadText): under
// Step, and on the trace engine compiling at a head's first dispatch. A hook
// on the memory op of a fused pair patches instruction 1, the pair's own
// first half, on its ninth call. The patch must invalidate the private,
// lazily compiled trace in place (no image to detach from), and the trace
// side must have been running a compiled trace when the hook fired. Each
// machine gets its own copy of text: LoadText takes ownership, so a shared
// slice would carry one machine's patch into the other.
func patchPrivateFusedMem(t *testing.T, ctx string, text []sparc.Instr, load bool) {
	t.Helper()
	patched := sparc.RI(sparc.Add, sparc.O1, 7, sparc.O1)
	mk := func(e Engine) (*Machine, *int) {
		m := New(cache.DefaultConfig, DefaultCosts)
		m.SetEngine(e)
		m.hotThreshold = 1
		m.LoadText(append([]sparc.Instr(nil), text...), 0)
		calls, compiledAtPatch := 0, 0
		hook := func(addr uint32, size int32) int64 {
			calls++
			if calls == 9 {
				compiledAtPatch = compiledTraces(m)
				if err := m.PatchInstr(1, patched); err != nil {
					t.Fatalf("patch: %v", err)
				}
			}
			return 0
		}
		if load {
			m.LoadHook = hook
		} else {
			m.StoreHook = hook
		}
		return m, &compiledAtPatch
	}

	a, _ := mk(EngineStep)
	b, compiledAtPatch := mk(EngineTrace)
	errA := stepAll(a)
	_, errB := b.Run()
	diffStates(t, ctx, a, b, errA, errB)
	if *compiledAtPatch == 0 {
		t.Fatalf("%s: no trace was compiled when the hook patched", ctx)
	}
	if got := b.Reg(sparc.O1); got < 100 || got > 106 {
		t.Fatalf("%s: final %%o1 = %d, want the patched +7 stride past 100", ctx, got)
	}
}

// TestDifferentialPatchInFusedStoreClosure patches from the store half of a
// fused add+st in a lazily compiled private trace.
func TestDifferentialPatchInFusedStoreClosure(t *testing.T) {
	text := []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
		{Op: sparc.St, Rd: sparc.O1, Rs1: sparc.L0, UseImm: true},
		sparc.RI(sparc.Subcc, sparc.O1, 100, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	patchPrivateFusedMem(t, "patch in private fused store", text, false)
}

// TestDifferentialPatchInFusedLoadClosure patches from the load half of a
// fused add+ld in a lazily compiled private trace.
func TestDifferentialPatchInFusedLoadClosure(t *testing.T) {
	text := []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
		{Op: sparc.Ld, Rd: sparc.O2, Rs1: sparc.L0, UseImm: true},
		sparc.RI(sparc.Subcc, sparc.O1, 100, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	patchPrivateFusedMem(t, "patch in private fused load", text, true)
}

// TestImageClosuresSurviveSiblingPatch: two machines share an Image and are
// both suspended part-way through the loop when one of them patches. The
// patcher detaches from the image and resumes on its private text; the
// sibling resumes inside the image's traces. Each must match a Step run that
// stops, patches (or not) and resumes at the same instruction.
func TestImageClosuresSurviveSiblingPatch(t *testing.T) {
	text := countLoop()
	img := BuildImage(text, 0)
	patched := sparc.RI(sparc.Add, sparc.O1, 3, sparc.O1)

	m1 := New(cache.DefaultConfig, DefaultCosts)
	m2 := New(cache.DefaultConfig, DefaultCosts)
	m1.LoadImage(img)
	m2.LoadImage(img)
	if _, _, err := m2.RunFor(50); err != nil {
		t.Fatalf("warm m2: %v", err)
	}
	if _, _, err := m1.RunFor(30); err != nil {
		t.Fatalf("warm m1: %v", err)
	}
	if err := m1.PatchInstr(2, patched); err != nil {
		t.Fatalf("patch: %v", err)
	}
	if img.traces[1] == nil {
		t.Fatal("image lost its compiled trace after a sibling patched")
	}
	if reflect.ValueOf(m2.traces).Pointer() != reflect.ValueOf(img.traces).Pointer() {
		t.Fatal("sibling lost the image's traces to another machine's patch")
	}
	_, err2 := m2.Run()
	_, err1 := m1.Run()

	ref := New(cache.DefaultConfig, DefaultCosts)
	ref.LoadText(text, 0)
	errRef := stepAll(ref)
	diffStates(t, "sibling resumed after a mid-run COW patch", ref, m2, errRef, err2)

	ref2 := New(cache.DefaultConfig, DefaultCosts)
	ref2.SetEngine(EngineStep)
	ref2.LoadText(text, 0)
	if _, _, err := ref2.RunFor(30); err != nil {
		t.Fatalf("reference prefix: %v", err)
	}
	if err := ref2.PatchInstr(2, patched); err != nil {
		t.Fatalf("reference patch: %v", err)
	}
	errRef2 := stepAll(ref2)
	diffStates(t, "patcher resumed after a mid-run COW patch", ref2, m1, errRef2, err1)
}

// TestClosureEngineRoundTrip switches one machine between the trace, step
// and block engines every 17 instructions on random programs, compiling at a
// head's first dispatch, and demands the final state of a pure-Step run:
// every engine must leave the machine exactly where the next can resume.
func TestClosureEngineRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed * 77))
		text := randText(r, 300)

		ref := New(cache.DefaultConfig, DefaultCosts)
		ref.SetCounterCount(4)
		ref.LoadText(text, 0)
		errRef := stepAll(ref)

		m := New(cache.DefaultConfig, DefaultCosts)
		m.SetCounterCount(4)
		m.hotThreshold = 1
		m.LoadText(text, 0)
		order := []Engine{EngineTrace, EngineStep, EngineBlock}
		var errM error
		compiled := 0
		for i := 0; !m.Halted() && errM == nil; i++ {
			m.SetEngine(order[i%len(order)])
			_, _, errM = m.RunFor(17)
			if m.Engine() == EngineTrace {
				compiled += compiledTraces(m)
			}
		}
		diffStates(t, "engine round-trip", ref, m, errRef, errM)
		if compiled == 0 {
			t.Fatalf("seed %d: the trace slices compiled no trace", seed)
		}
	}
}
