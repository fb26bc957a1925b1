package monitor

import (
	"testing"

	"databreak/internal/machine"
)

// Calls storeHit/readHit directly, simulating the post-access traps the
// patched check sequences raise, to pin the Go-side kind filtering and
// transition predicate semantics without running simulated code.

func TestKindFilteringSuppressesWrongKind(t *testing.T) {
	m, s := newMachineWithService(t, DefaultConfig)
	storeAddr := machine.DataBase
	loadAddr := machine.DataBase + 16
	allAddr := machine.DataBase + 32
	if err := s.CreateRegionKind(storeAddr, 4, KindStore); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateRegionKind(loadAddr, 4, KindLoad); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateRegion(allAddr, 4); err != nil {
		t.Fatal(err)
	}
	_ = m
	hits := collectHits(s)

	// Wrong-kind traps are suppressed entirely: not counted, not forwarded.
	s.readHit(storeAddr, 4)
	s.storeHit(loadAddr, 4)
	if s.HitCount != 0 || len(*hits) != 0 {
		t.Fatalf("suppressed traps were delivered: count=%d hits=%+v", s.HitCount, *hits)
	}

	s.storeHit(storeAddr, 4)
	s.readHit(loadAddr, 4)
	s.storeHit(allAddr, 4)
	s.readHit(allAddr, 4)
	if s.HitCount != 4 || len(*hits) != 4 {
		t.Fatalf("delivered = %d (%d observed), want 4", s.HitCount, len(*hits))
	}
	if h := (*hits)[0]; h.Read || h.Addr != storeAddr {
		t.Errorf("hit 0 = %+v, want store at %#x", h, storeAddr)
	}
	if h := (*hits)[1]; !h.Read || h.Addr != loadAddr {
		t.Errorf("hit 1 = %+v, want read at %#x", h, loadAddr)
	}
}

func TestTransitionShadowSnapshotAtCreate(t *testing.T) {
	m, s := newMachineWithService(t, DefaultConfig)
	addr := machine.DataBase
	m.WriteWord(addr, 5)
	if err := s.CreateTransitionRegion(addr, 4, Predicate{Kind: PredChanged}); err != nil {
		t.Fatal(err)
	}
	hits := collectHits(s)
	// A store of the value already in memory at create time must not fire.
	s.storeHit(addr, 4)
	if s.HitCount != 0 {
		t.Fatalf("redundant store fired: %+v", *hits)
	}
	m.WriteWord(addr, 6)
	s.storeHit(addr, 4)
	if s.HitCount != 1 {
		t.Fatalf("changed store did not fire")
	}
	if len(*hits) != 1 {
		t.Fatalf("observed %d hits, want 1", len(*hits))
	}
	h := (*hits)[0]
	if h.Old != 5 || h.New != 6 {
		t.Fatalf("old/new = %d/%d, want 5/6", h.Old, h.New)
	}
}

func TestTransitionPredicates(t *testing.T) {
	cases := []struct {
		name   string
		pred   Predicate
		init   int32
		stores []int32 // successive stored values
		fires  []bool  // whether each store delivers
	}{
		{"changed", Predicate{Kind: PredChanged}, 5,
			[]int32{5, 6, 6, 5}, []bool{false, true, false, true}},
		{"nonzero", Predicate{Kind: PredNonzero}, 6,
			[]int32{3, 0, 0, 9}, []bool{false, true, false, true}},
		{"sign", Predicate{Kind: PredSign}, 1,
			[]int32{2, -1, -7, 3}, []bool{false, true, false, true}},
		{"mask", Predicate{Kind: PredMask, Arg: 0xF0}, 0x13,
			[]int32{0x14, 0x24, 0x2F, 0x3F}, []bool{false, true, false, true}},
		{"eq", Predicate{Kind: PredEQ, Arg: 7}, 3,
			[]int32{4, 7, 7, 9}, []bool{false, true, false, true}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			m, s := newMachineWithService(t, DefaultConfig)
			addr := machine.DataBase
			m.WriteWord(addr, c.init)
			if err := s.CreateTransitionRegion(addr, 4, c.pred); err != nil {
				t.Fatal(err)
			}
			hits := collectHits(s)
			delivered := int64(0)
			for i, v := range c.stores {
				m.WriteWord(addr, v)
				s.storeHit(addr, 4)
				if c.fires[i] {
					delivered++
				}
				if s.HitCount != delivered {
					t.Fatalf("after store %d (value %d): delivered=%d, want %d",
						i, v, s.HitCount, delivered)
				}
			}
			if int64(len(*hits)) != delivered {
				t.Fatalf("observed %d hits, want %d", len(*hits), delivered)
			}
		})
	}
}

func TestTransitionRegionValidation(t *testing.T) {
	_, s := newMachineWithService(t, DefaultConfig)
	if err := s.CreateTransitionRegion(machine.DataBase, 4, Predicate{Kind: PredKind(99)}); err == nil {
		t.Error("invalid predicate kind must be rejected")
	}
	if err := s.CreateRegionKind(machine.DataBase, 4, Kind(0)); err == nil {
		t.Error("zero kind must be rejected")
	}
	if err := s.CreateRegionKind(machine.DataBase, 4, Kind(7)); err == nil {
		t.Error("out-of-range kind must be rejected")
	}
}

func TestRegionKindAccessor(t *testing.T) {
	_, s := newMachineWithService(t, DefaultConfig)
	if err := s.CreateRegionKind(machine.DataBase, 4, KindLoad); err != nil {
		t.Fatal(err)
	}
	if k := s.RegionKind(machine.DataBase, 4); k != KindLoad {
		t.Errorf("RegionKind = %v, want KindLoad", k)
	}
	if k := s.RegionKind(machine.DataBase+64, 4); k != 0 {
		t.Errorf("RegionKind of absent region = %v, want 0", k)
	}
}

// TestRegionIndexLookups pins the sorted region index against a linear
// scan: the covering region of every word around regions created out of
// address order, adjacent to one another, and after a deletion, plus the
// exact-bounds lookups.
func TestRegionIndexLookups(t *testing.T) {
	_, s := newMachineWithService(t, DefaultConfig)
	base := machine.DataBase
	regions := [][2]uint32{{base + 64, 8}, {base, 4}, {base + 32, 16}, {base + 48, 4}, {base + 8, 4}}
	for _, r := range regions {
		if err := s.CreateRegionKind(r[0], r[1], KindLoad); err != nil {
			t.Fatal(err)
		}
	}
	check := func(live [][2]uint32) {
		t.Helper()
		for w := base - 8; w < base+96; w += 4 {
			var want [2]uint32
			for _, r := range live {
				if w >= r[0] && w < r[0]+r[1] {
					want = r
				}
			}
			var got [2]uint32
			if info := s.regionOf(w); info != nil {
				got = [2]uint32{info.addr, info.size}
			}
			if got != want {
				t.Errorf("regionOf(%#x) = %v, want %v", w, got, want)
			}
		}
		for _, r := range live {
			if k := s.RegionKind(r[0], r[1]); k != KindLoad {
				t.Errorf("RegionKind(%#x, %d) = %v", r[0], r[1], k)
			}
		}
	}
	check(regions)
	if err := s.CreateRegionKind(base+32, 16, KindStore); err == nil {
		t.Error("duplicate region accepted")
	}
	if err := s.DeleteRegion(base+32, 8); err == nil {
		t.Error("delete with wrong bounds accepted")
	}
	if err := s.DeleteRegion(base+32, 16); err != nil {
		t.Fatal(err)
	}
	if k := s.RegionKind(base+32, 16); k != 0 {
		t.Errorf("deleted region still has kind %v", k)
	}
	check([][2]uint32{regions[0], regions[1], regions[3], regions[4]})
}
