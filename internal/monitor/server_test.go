package monitor

import (
	"sync"
	"testing"

	"databreak/internal/asm"
	"databreak/internal/cache"
	"databreak/internal/machine"
)

// probeProg builds a program that calls __mrs_check_w on addr n times.
func probeProg(t *testing.T, addr uint32, n int) *asm.Program {
	t.Helper()
	src := "main:\n\tsave %sp, -96, %sp\n"
	for i := 0; i < n; i++ {
		src += "\tset " + itoa(addr) + ", %g5\n\tcall __mrs_check_w\n"
	}
	src += "\tmov 0, %i0\n\trestore\n\tretl\n"
	u := asm.MustParse("p.s", src)
	lib := mustLib(t, DefaultConfig)
	prog, err := asm.Assemble(asm.Options{AddStartup: true}, u, lib)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func itoa(v uint32) string {
	const hex = "0123456789abcdef"
	buf := [10]byte{'0', 'x'}
	for i := 0; i < 8; i++ {
		buf[2+i] = hex[(v>>(28-4*i))&0xf]
	}
	return string(buf[:])
}

// TestServerHitFanIn runs several sessions concurrently and checks every
// session's hits arrive on the shared channel, correctly tagged.
func TestServerHitFanIn(t *testing.T) {
	srv := NewServer()
	const nSessions = 4
	const nProbes = 5
	watched := uint32(0x2000_0000)

	type result struct {
		id   int
		err  error
		code int32
	}
	results := make(chan result, nSessions)
	var wg sync.WaitGroup
	for i := 0; i < nSessions; i++ {
		m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
		probeProg(t, watched, nProbes).Load(m)
		sess, err := srv.Attach(DefaultConfig, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.CreateRegion(watched, 4); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			code, err := s.Run()
			results <- result{id: s.ID(), err: err, code: code}
		}(sess)
	}

	perSession := make(map[int]int)
	got := 0
	for got < nSessions*nProbes {
		h := <-srv.Hits()
		if h.Hit.Addr != watched {
			t.Fatalf("hit at %#x, want %#x", h.Hit.Addr, watched)
		}
		perSession[h.Session]++
		got++
	}
	wg.Wait()
	close(results)
	for r := range results {
		if r.err != nil {
			t.Fatalf("session %d: %v", r.id, r.err)
		}
		if r.code != 0 {
			t.Fatalf("session %d: exit = %d", r.id, r.code)
		}
	}
	if len(perSession) != nSessions {
		t.Fatalf("hits from %d sessions, want %d", len(perSession), nSessions)
	}
	for id, n := range perSession {
		if n != nProbes {
			t.Fatalf("session %d delivered %d hits, want %d", id, n, nProbes)
		}
	}
	srv.Close()
	// The channel must close (pump shut down) once the server is closed.
	for range srv.Hits() {
	}
}

// TestSessionLifecycle covers attach/detach/teardown semantics.
func TestSessionLifecycle(t *testing.T) {
	srv := NewServer()
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	probeProg(t, 0x2000_0000, 1).Load(m)
	sess, err := srv.Attach(DefaultConfig, m)
	if err != nil {
		t.Fatal(err)
	}
	if srv.SessionCount() != 1 || srv.Session(sess.ID()) != sess {
		t.Fatal("session not registered")
	}
	if err := sess.Do(func(m *machine.Machine, svc *Service) error {
		return svc.CreateRegion(0x2000_0000, 4)
	}); err != nil {
		t.Fatal(err)
	}
	sess.Detach()
	sess.Detach() // idempotent
	if srv.SessionCount() != 0 || srv.Session(sess.ID()) != nil {
		t.Fatal("detached session still registered")
	}
	if err := sess.CreateRegion(0x2000_0100, 4); err == nil {
		t.Fatal("operations on a detached session must fail")
	}
	if _, err := sess.Run(); err == nil {
		t.Fatal("Run on a detached session must fail")
	}
	srv.Close()
	srv.Close() // idempotent
	if _, err := srv.Attach(DefaultConfig, m); err == nil {
		t.Fatal("attach after Close must fail")
	}
}

// TestSessionMidRunControl interleaves region create/delete with a running
// session and confirms hits appear exactly while the region is installed.
func TestSessionMidRunControl(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	const probes = 400
	watched := uint32(0x2000_0000)
	probeProg(t, watched, probes).Load(m)
	sess, err := srv.Attach(DefaultConfig, m)
	if err != nil {
		t.Fatal(err)
	}
	// A far region keeps the service enabled while the watched one churns.
	if err := sess.CreateRegion(0x7000_0000, 4); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := sess.Run()
		done <- err
	}()
	// Churn the watched region while the program runs. Install/remove must
	// always succeed regardless of where the session is in its run.
	installed := false
	for i := 0; i < 50; i++ {
		if installed {
			if err := sess.DeleteRegion(watched, 4); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := sess.CreateRegion(watched, 4); err != nil {
				t.Fatal(err)
			}
		}
		installed = !installed
	}
	if installed {
		if err := sess.DeleteRegion(watched, 4); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Hit count depends on interleaving; the invariant is bounds.
	var hits int
	if err := sess.Do(func(_ *machine.Machine, svc *Service) error {
		hits = int(svc.HitCount)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if hits > probes {
		t.Fatalf("%d hits from %d probes", hits, probes)
	}
}
