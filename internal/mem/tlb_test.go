package mem

import (
	"testing"

	"repro/internal/machine"
)

func tinyTLB() machine.TLBGeom {
	return machine.TLBGeom{Entries: 4, Ways: 0, PageSize: 4096} // fully associative
}

func TestTLBHitAfterMiss(t *testing.T) {
	tlb := NewTLB("t", tinyTLB(), nil)
	if tlb.Lookup(0x1000) {
		t.Fatal("cold lookup should miss")
	}
	if !tlb.Lookup(0x1fff) {
		t.Fatal("same-page lookup should hit")
	}
	if tlb.Lookup(0x2000) {
		t.Fatal("next page should miss")
	}
	if tlb.Stats.Lookups != 3 || tlb.Stats.Misses != 2 {
		t.Fatalf("stats %+v", tlb.Stats)
	}
}

func TestTLBLRUCapacity(t *testing.T) {
	tlb := NewTLB("t", tinyTLB(), nil) // 4 entries
	for p := uint64(0); p < 4; p++ {
		tlb.Lookup(p * 4096)
	}
	// All four resident.
	for p := uint64(0); p < 4; p++ {
		if !tlb.Lookup(p * 4096) {
			t.Fatalf("page %d should be resident", p)
		}
	}
	// Fifth page evicts the LRU (page 0).
	tlb.Lookup(4 * 4096)
	if tlb.Lookup(0) {
		t.Fatal("page 0 should have been evicted")
	}
}

func TestTLBSecondLevel(t *testing.T) {
	stlb := NewTLB("stlb", machine.TLBGeom{Entries: 64, Ways: 0, PageSize: 4096}, nil)
	itlb := NewTLB("itlb", tinyTLB(), stlb)

	// Touch 8 pages: the 4-entry ITLB can hold only 4, the STLB all 8.
	for p := uint64(0); p < 8; p++ {
		itlb.Lookup(p * 4096)
	}
	if itlb.Stats.Misses != 8 {
		t.Fatalf("cold misses = %d, want 8", itlb.Stats.Misses)
	}
	// Re-touch page 0: ITLB misses (evicted) but STLB has it -> no walk.
	before := itlb.Stats.Misses
	itlb.Lookup(0)
	if itlb.Stats.Misses != before {
		t.Fatal("STLB hit must not count as a walk-causing miss")
	}
	if itlb.Stats.SecondLevelHits != 1 {
		t.Fatalf("second level hits = %d", itlb.Stats.SecondLevelHits)
	}
}

func TestTLBFlush(t *testing.T) {
	set := NewTLBSet(machine.CoreI9())
	set.ITLB.Lookup(0x1000)
	set.DTLB.Lookup(0x2000)
	set.Flush()
	for _, tl := range []*TLB{set.ITLB, set.DTLB, set.STLB} {
		for i, tag := range tl.tags {
			if tag != 0 {
				t.Fatalf("%s way %d holds %#x after Flush", tl.name, i, tag)
			}
		}
	}
	if set.ITLB.Lookup(0x1000) || set.DTLB.Lookup(0x2000) {
		t.Fatal("flushed TLB should miss")
	}
	if set.ITLB.Stats.Misses != 2 || set.DTLB.Stats.Misses != 2 {
		t.Fatalf("flushed lookups must walk: ITLB %+v, DTLB %+v", set.ITLB.Stats, set.DTLB.Stats)
	}
}

func TestTLBSetSharedSTLB(t *testing.T) {
	set := NewTLBSet(machine.CoreI9())
	// Data touch installs the page in the STLB...
	set.DTLB.Lookup(0x5000)
	// ...so an instruction lookup of the same page misses the ITLB but
	// hits the STLB and causes no walk.
	set.ITLB.Lookup(0x5000)
	if set.ITLB.Stats.Misses != 0 {
		t.Fatalf("ITLB walk-causing misses = %d; STLB should have filtered it", set.ITLB.Stats.Misses)
	}
	if set.ITLB.Stats.SecondLevelHits != 1 {
		t.Fatalf("STLB hits = %d", set.ITLB.Stats.SecondLevelHits)
	}
}

func TestTLBSetAssociative(t *testing.T) {
	g := machine.TLBGeom{Entries: 8, Ways: 2, PageSize: 4096} // 4 sets, 2 ways
	tlb := NewTLB("t", g, nil)
	// Pages 0, 4, 8 map to set 0; with 2 ways page 0 is evicted by page 8.
	tlb.Lookup(0 * 4096)
	tlb.Lookup(4 * 4096)
	tlb.Lookup(0 * 4096) // refresh page 0; page 4 is LRU
	tlb.Lookup(8 * 4096) // evicts page 4
	if tlb.Lookup(4 * 4096) {
		t.Fatal("page 4 should have been evicted")
	}
	// That miss refilled page 4, evicting LRU page 0; page 8 stays.
	if !tlb.Lookup(8 * 4096) {
		t.Fatal("page 8 should be resident")
	}
}

func TestTLBPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTLB("bad", machine.TLBGeom{Entries: 0, PageSize: 4096}, nil)
}
