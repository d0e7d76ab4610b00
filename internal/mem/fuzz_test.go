package mem

import (
	"testing"

	"repro/internal/machine"
)

// FuzzCacheAccess drives a cache with arbitrary byte-derived access
// sequences and checks the structural invariants: stats add up, a just-
// accessed line probes present, Reset empties.
func FuzzCacheAccess(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 255, 128}, uint8(0))
	f.Add([]byte{7, 7, 7, 7}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, policyByte uint8) {
		policy := LRU
		if policyByte%2 == 1 {
			policy = Random
		}
		c := NewCache("fuzz", machine.CacheGeom{SizeBytes: 4096, LineBytes: 64, Ways: 2}, policy)
		var accesses, hits uint64
		for i := 0; i+4 <= len(data); i += 4 {
			addr := uint64(data[i]) | uint64(data[i+1])<<8 | uint64(data[i+2])<<16 | uint64(data[i+3])<<24
			if c.Access(addr) {
				hits++
			}
			accesses++
			if !c.Probe(addr) {
				t.Fatalf("line %x absent immediately after access", addr)
			}
		}
		if c.Stats.Accesses != accesses {
			t.Fatalf("access count %d vs %d", c.Stats.Accesses, accesses)
		}
		if c.Stats.Misses != accesses-hits {
			t.Fatalf("miss accounting: %d misses, %d accesses, %d hits", c.Stats.Misses, accesses, hits)
		}
		c.Reset()
		for i := 0; i+4 <= len(data); i += 4 {
			addr := uint64(data[i]) | uint64(data[i+1])<<8
			if c.Probe(addr) {
				t.Fatalf("line %x survived reset", addr)
			}
		}
	})
}

// FuzzTLBLookup checks the TLB invariants under arbitrary address streams,
// including the two-level interaction: walk misses + STLB hits never
// exceed lookups.
func FuzzTLBLookup(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		stlb := NewTLB("stlb", machine.TLBGeom{Entries: 16, Ways: 0, PageSize: 4096}, nil)
		tlb := NewTLB("tlb", machine.TLBGeom{Entries: 4, Ways: 0, PageSize: 4096}, stlb)
		for i := 0; i+3 <= len(data); i += 3 {
			addr := uint64(data[i]) | uint64(data[i+1])<<8 | uint64(data[i+2])<<16
			tlb.Lookup(addr)
			// A page looked up twice in a row must hit the second time.
			if !tlb.Lookup(addr) {
				t.Fatalf("page of %x missed immediately after fill", addr)
			}
		}
		s := tlb.Stats
		if s.Misses+s.SecondLevelHits > s.Lookups {
			t.Fatalf("impossible stats: %+v", s)
		}
	})
}
