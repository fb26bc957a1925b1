package bench

import (
	"net"
	"testing"
	"time"

	"databreak/internal/mrsnet"
)

// TestMrsdLoadDifferential: sessions through an in-process mrsd daemon are
// byte-identical to the serial references — the same memoized runs the table
// drivers and bench.Stress verify against, so identity here is transitive
// identity with both. MrsdLoad fails internally on any divergence; this test
// also sanity-checks the report shape.
func TestMrsdLoadDifferential(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Artifacts = NewArtifactCache()
	o := MrsdOptions{
		Sessions:       16,
		Conns:          4,
		PatchChurn:     true,
		HitSessions:    6,
		PerHitBaseline: true,
		Only:           []string{"eqntott", "fpppp"},
	}
	if !testing.Short() {
		o.Only = nil // full suite
		o.Sessions = 30
		o.HitSessions = 10
	}
	rep, err := cfg.MrsdLoad(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != o.Sessions || rep.HitSessions != o.HitSessions {
		t.Fatalf("report counts %d/%d, want %d/%d", rep.Sessions, rep.HitSessions, o.Sessions, o.HitSessions)
	}
	if rep.ChurnSessions == 0 || rep.PatchSessions == 0 {
		t.Fatalf("no churn exercised: %+v", rep)
	}
	if rep.Hits <= 0 || rep.HitsPerSec <= 0 {
		t.Fatalf("hit phase produced no hits: %+v", rep)
	}
	if rep.AttachP50MS <= 0 || rep.AttachMaxMS < rep.AttachP50MS || rep.AttachSamples != o.HitSessions {
		t.Fatalf("implausible latency summary: p50=%v max=%v over %d samples", rep.AttachP50MS, rep.AttachMaxMS, rep.AttachSamples)
	}
	if rep.BatchSpeedup <= 0 {
		t.Fatalf("per-hit baseline missing: %+v", rep)
	}
	t.Logf("sessions/sec=%.1f hits/sec=%.0f p50=%.2fms max=%.2fms batch speedup=%.2fx",
		rep.SessionsPerSec, rep.HitsPerSec, rep.AttachP50MS, rep.AttachMaxMS, rep.BatchSpeedup)
}

// TestMrsdLoadTCPLoopback drives a daemon over real TCP on 127.0.0.1 — the
// deployment shape cmd/mrsd serves — with the same differential checks.
func TestMrsdLoadTCPLoopback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Artifacts = NewArtifactCache()
	d, err := mrsnet.NewDaemon(mrsnet.Options{
		Programs:   cfg.ProgramSource(),
		NewMachine: cfg.MachineFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(ln)

	rep, err := cfg.MrsdLoad(MrsdOptions{
		Addr:        ln.Addr().String(),
		Sessions:    8,
		Conns:       2,
		PatchChurn:  true,
		HitSessions: 4,
		Only:        []string{"eqntott", "fpppp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hits <= 0 {
		t.Fatalf("no hits over TCP: %+v", rep)
	}
	if got := d.Attached(); got != int64(rep.Sessions+rep.HitSessions) {
		t.Fatalf("daemon attached %d sessions, want %d", got, rep.Sessions+rep.HitSessions)
	}
}

// TestMrsdSharedCacheWithStress: a Stress run and an mrsd load sharing one
// artifact cache verify against the same memoized serial runs — the explicit
// three-way (serial / in-process server / networked daemon) identity the
// design promises. Skipped in -short: Stress runs the full suite.
func TestMrsdSharedCacheWithStress(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite three-way differential")
	}
	cfg := DefaultConfig()
	cfg.Artifacts = NewArtifactCache()
	if _, err := cfg.Stress(StressConfig{Sessions: 10, Churn: 4, PatchChurn: true}); err != nil {
		t.Fatalf("stress: %v", err)
	}
	runsBefore := cfg.Artifacts.Stats().Runs
	rep, err := cfg.MrsdLoad(MrsdOptions{Sessions: 10, HitSessions: -1, PatchChurn: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 10 {
		t.Fatalf("sessions = %d", rep.Sessions)
	}
	// The far-region references must have been reused from the Stress run,
	// not recomputed: same memo keys, so zero new serial executions.
	if runs := cfg.Artifacts.Stats().Runs; runs != runsBefore {
		t.Fatalf("mrsd load recomputed serial refs: %d runs → %d (keys diverged from Stress)", runsBefore, runs)
	}
}

// TestPctileMS pins the nearest-rank percentile helper.
func TestPctileMS(t *testing.T) {
	lats := []time.Duration{
		4 * time.Millisecond, 1 * time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond,
	}
	if got := pctileMS(lats, 0.50); got != 2 {
		t.Fatalf("p50 = %v, want 2", got)
	}
	if got := pctileMS(lats, 0.99); got != 4 {
		t.Fatalf("p99 = %v, want 4", got)
	}
	if got := pctileMS(nil, 0.5); got != 0 {
		t.Fatalf("empty sample p50 = %v", got)
	}
}
