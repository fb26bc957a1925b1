package elim

import (
	"testing"

	"databreak/internal/asm"
	"databreak/internal/cache"
	"databreak/internal/machine"
	"databreak/internal/minic"
	"databreak/internal/monitor"
)

// A global read through "set flag, %oN; ld [%oN], %oN" — the destination
// clobbers the address register, so the kept read check must run before the
// load (regression test for the post-load check recomputing a garbage
// address and missing the monitored read).
func TestCheckReadsClobberingLoad(t *testing.T) {
	csrc := `
int flag = 5;
int other;
int main() {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 3; i = i + 1) {
		other = s;
		s = s + flag;
	}
	return s;
}
`
	asmSrc, err := minic.Compile(csrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	u, err := asm.Parse("p.s", asmSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, mode := range []Mode{SymOnly, Full} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			res, err := Apply(Options{Mode: mode, CheckReads: true}, u)
			if err != nil {
				t.Fatalf("elim: %v", err)
			}
			prog, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
			prog.Load(m)
			svc, err := monitor.NewService(monitor.DefaultConfig, m)
			if err != nil {
				t.Fatal(err)
			}
			var hits []monitor.Hit
			svc.OnHit = func(h monitor.Hit) { hits = append(hits, h) }
			rt := NewRuntime(m, prog, res)
			if err := rt.PreMonitorSymbol(svc, "flag"); err != nil {
				t.Fatal(err)
			}
			code, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if code != 15 {
				t.Fatalf("exit = %d, want 15", code)
			}
			addr, ok := prog.DataLabels["flag"]
			if !ok {
				t.Fatal("no flag label")
			}
			reads := 0
			for _, h := range hits {
				if !h.Read {
					continue
				}
				if h.Addr != addr {
					t.Fatalf("read hit at %#x, want %#x", h.Addr, addr)
				}
				reads++
			}
			if reads != 3 {
				t.Fatalf("read hits = %d, want 3 (hits: %+v)", reads, hits)
			}
		})
	}
}

const loopReadProg = `
int a[200];
int total;
int main() {
	int i;
	int n;
	int s;
	n = 200;
	s = 0;
	for (i = 0; i < n; i = i + 1) a[i] = i;
	for (i = 0; i < n; i = i + 1) s = s + a[i];
	total = s;
	return 0;
}
`

// buildReads is build() with read checking enabled.
func buildReads(t *testing.T, mode Mode, csrc string) *world {
	t.Helper()
	asmSrc, err := minic.Compile(csrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	u, err := asm.Parse("p.s", asmSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Apply(Options{Mode: mode, CheckReads: true}, u)
	if err != nil {
		t.Fatalf("elim: %v", err)
	}
	prog, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	prog.Load(m)
	svc, err := monitor.NewService(monitor.DefaultConfig, m)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(m, prog, res)
	w := &world{prog: prog, m: m, svc: svc, rt: rt, res: res}
	svc.OnHit = func(h monitor.Hit) { w.hits = append(w.hits, h) }
	return w
}

// Eliminated load checks must re-insert exactly like store checks: a
// load-kind region inside the read loop's range arms the site, the
// re-inserted check delivers the read hit, and the store loop's traps on
// the same word are suppressed by the region's kind.
func TestRangeHitReinsertsReadChecks(t *testing.T) {
	w := buildReads(t, Full, loopReadProg)
	sym, ok := w.prog.LookupSym("a", "")
	if !ok {
		t.Fatal("no symbol a")
	}
	target := sym.Addr + 100*4
	if err := w.svc.CreateRegionKind(target, 4, monitor.KindLoad); err != nil {
		t.Fatal(err)
	}
	if _, err := w.m.Run(); err != nil {
		t.Fatal(err)
	}
	if w.rt.ArmEvents == 0 {
		t.Fatal("pre-header range check must fire and arm the sites")
	}
	reads := 0
	for _, h := range w.hits {
		if !h.Read {
			t.Fatalf("store hit delivered through a load-kind region: %+v", h)
		}
		if h.Addr != target {
			t.Fatalf("read hit at %#x, want %#x", h.Addr, target)
		}
		reads++
	}
	if reads != 1 {
		t.Fatalf("read hits = %d, want 1 (hits: %+v)", reads, w.hits)
	}
	if w.m.ExitCode() != 0 {
		t.Fatalf("exit = %d, want 0", w.m.ExitCode())
	}
}
