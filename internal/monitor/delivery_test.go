package monitor

import (
	"testing"

	"databreak/internal/cache"
	"databreak/internal/machine"
)

// deliveryCase is one kind of monitor hit, driven straight through the trap
// handlers the way the patched check sequences raise them.
type deliveryCase struct {
	name string
	// setup installs the region the hit lands in and returns the per-hit
	// trap, which must deliver exactly one hit per call.
	setup func(t testing.TB, m *machine.Machine, s *Service) func()
}

func deliveryCases() []deliveryCase {
	addr := machine.DataBase
	return []deliveryCase{
		{"store", func(t testing.TB, _ *machine.Machine, s *Service) func() {
			if err := s.CreateRegion(addr, 4); err != nil {
				t.Fatal(err)
			}
			return func() { s.storeHit(addr, 4) }
		}},
		{"load", func(t testing.TB, _ *machine.Machine, s *Service) func() {
			if err := s.CreateRegionKind(addr, 4, KindLoad); err != nil {
				t.Fatal(err)
			}
			return func() { s.readHit(addr, 4) }
		}},
		{"transition", func(t testing.TB, m *machine.Machine, s *Service) func() {
			if err := s.CreateTransitionRegion(addr, 4, Predicate{Kind: PredChanged}); err != nil {
				t.Fatal(err)
			}
			v := int32(0)
			return func() {
				v++
				m.WriteWord(addr, v)
				s.storeHit(addr, 4)
			}
		}},
	}
}

// deliveryRig builds a service for c, with or without an OnHit observer,
// and returns its per-hit trap.
func deliveryRig(t testing.TB, c deliveryCase, observe bool) (*Service, func()) {
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	s, err := NewService(DefaultConfig, m)
	if err != nil {
		t.Fatal(err)
	}
	if observe {
		var sink int64
		s.OnHit = func(h Hit) { sink += h.Instrs + int64(h.Addr) }
	}
	return s, c.setup(t, m, s)
}

// TestHitDeliveryAllocs: delivering a hit allocates nothing, whatever its
// kind and whether or not OnHit observes it — the Service streams hits and
// keeps no history, so memory stays flat however hit-dense a run is. Every
// hit is measured on its own: AllocsPerRun truncates its average, so one
// run over many hits would not see a log growing by doubling.
func TestHitDeliveryAllocs(t *testing.T) {
	const hits = 512
	for _, c := range deliveryCases() {
		for _, observe := range []bool{false, true} {
			s, hit := deliveryRig(t, c, observe)
			for i := 0; i < hits; i++ {
				if allocs := testing.AllocsPerRun(1, hit); allocs != 0 {
					t.Fatalf("%s (OnHit %v): hit %d allocated %.0f times, want 0",
						c.name, observe, s.HitCount, allocs)
				}
			}
			// AllocsPerRun makes one warm-up call before the measured one.
			if s.HitCount != 2*hits {
				t.Errorf("%s (OnHit %v): HitCount %d, want %d", c.name, observe, s.HitCount, 2*hits)
			}
		}
	}
}

// BenchmarkHitDelivery measures one hit through the trap handler to
// HitCount and, in the observed variants, OnHit.
func BenchmarkHitDelivery(b *testing.B) {
	for _, c := range deliveryCases() {
		for _, observe := range []bool{false, true} {
			name := c.name
			if observe {
				name += "/onhit"
			}
			b.Run(name, func(b *testing.B) {
				s, hit := deliveryRig(b, c, observe)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					hit()
				}
				b.StopTimer()
				if s.HitCount < int64(b.N) {
					b.Fatalf("HitCount %d after %d hits", s.HitCount, b.N)
				}
			})
		}
	}
}
