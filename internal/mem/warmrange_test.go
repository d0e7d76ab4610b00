package mem

import (
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/rng"
)

// cloneTLB deep-copies a TLB (and its second level) so the same pre-state
// can be driven through two code paths.
func cloneTLB(t *TLB) *TLB {
	d := *t
	d.tags = append([]uint64(nil), t.tags...)
	d.ts = append([]uint64(nil), t.ts...)
	d.mru = append([]int32(nil), t.mru...)
	if t.next != nil {
		d.next = cloneTLB(t.next)
	}
	return &d
}

// sameTLBState reports the first difference between two TLBs' complete
// internal state (second level included), or "" if identical.
func sameTLBState(a, b *TLB) string {
	if a.clock != b.clock {
		return fmt.Sprintf("%s clock %d != %d", a.name, a.clock, b.clock)
	}
	if a.Stats != b.Stats {
		return fmt.Sprintf("%s stats %+v != %+v", a.name, a.Stats, b.Stats)
	}
	for i := range a.tags {
		if a.tags[i] != b.tags[i] {
			return fmt.Sprintf("%s tags[%d] %#x != %#x", a.name, i, a.tags[i], b.tags[i])
		}
		if a.ts[i] != b.ts[i] {
			return fmt.Sprintf("%s ts[%d] %d != %d", a.name, i, a.ts[i], b.ts[i])
		}
	}
	for s := range a.mru {
		if a.mru[s] != b.mru[s] {
			return fmt.Sprintf("%s mru[%d] %d != %d", a.name, s, a.mru[s], b.mru[s])
		}
	}
	if (a.next == nil) != (b.next == nil) {
		return "second-level presence differs"
	}
	if a.next != nil {
		return sameTLBState(a.next, b.next)
	}
	return ""
}

// cloneTLBSet deep-copies a TLBSet, keeping its first levels' shared
// second level shared.
func cloneTLBSet(s *TLBSet) *TLBSet {
	d := &TLBSet{STLB: cloneTLB(s.STLB)}
	d.ITLB, d.DTLB = cloneTLB(s.ITLB), cloneTLB(s.DTLB)
	d.ITLB.next, d.DTLB.next = d.STLB, d.STLB
	return d
}

// sameTLBSetState reports the first difference between two TLBSets.
func sameTLBSetState(a, b *TLBSet) string {
	for _, p := range [][2]*TLB{{a.ITLB, b.ITLB}, {a.DTLB, b.DTLB}} {
		if diff := sameTLBState(p[0], p[1]); diff != "" {
			return diff
		}
	}
	return ""
}

// testTLBSet builds a TLBSet from first-level and STLB geometries.
func testTLBSet(i, d, s machine.TLBGeom) *TLBSet {
	stlb := NewTLB("stlb", s, nil)
	return &TLBSet{ITLB: NewTLB("itlb", i, stlb), DTLB: NewTLB("dtlb", d, stlb), STLB: stlb}
}

// TestWarmRangeMatchesWarmLoop drives randomized pre-states and batches
// of page ranges through TLBSet.WarmRanges and the per-page Warm loop it
// replaces, and requires bit-identical state. The geometries cover
// set-associative levels, fully associative first levels wider than the
// bulk cache path, and first levels with different page sizes; pre-states
// include sets that hold entries and a Reset after use.
func TestWarmRangeMatchesWarmLoop(t *testing.T) {
	geoms := [][3]machine.TLBGeom{
		{{Entries: 32, Ways: 4, PageSize: 4096}, {Entries: 16, Ways: 2, PageSize: 4096}, {Entries: 128, Ways: 8, PageSize: 4096}},
		{{Entries: 48, Ways: 0, PageSize: 4096}, {Entries: 48, Ways: 0, PageSize: 4096}, {Entries: 64, Ways: 8, PageSize: 4096}},
		{{Entries: 16, Ways: 4, PageSize: 8192}, {Entries: 8, Ways: 1, PageSize: 4096}, {Entries: 32, Ways: 2, PageSize: 4096}},
	}
	r := rng.New(0xcafe)
	for trial := 0; trial < 200; trial++ {
		for gi, g := range geoms {
			ref := testTLBSet(g[0], g[1], g[2])
			// Random pre-state: lookups (which fill on miss) over a region
			// overlapping the warmed ranges, sometimes reset afterwards.
			for i, nOps := 0, r.Intn(150); i < nOps; i++ {
				addr := uint64(r.Intn(1 << 20))
				if r.Bool(0.5) {
					ref.ITLB.Lookup(addr)
				} else {
					ref.DTLB.Lookup(addr)
				}
			}
			if r.Bool(0.3) {
				ref.Reset()
			}
			opt := cloneTLBSet(ref)
			for pass := 0; pass < 2; pass++ {
				batch := make([]TLBRange, r.Intn(6))
				for i := range batch {
					start := uint64(r.Intn(1 << 20))
					batch[i] = TLBRange{Start: start, End: start + uint64(r.Intn(1<<20)), Code: r.Bool(0.5)}
					if r.Bool(0.1) {
						batch[i].End = start // empty
					}
				}
				for _, b := range batch {
					first := ref.DTLB
					if b.Code {
						first = ref.ITLB
					}
					for a := b.Start; a < b.End; a += 1 << first.pageBits {
						first.Warm(a)
					}
				}
				opt.WarmRanges(batch)
				if diff := sameTLBSetState(ref, opt); diff != "" {
					t.Fatalf("geom %d trial %d pass %d batch %+v: %s", gi, trial, pass, batch, diff)
				}
			}
		}
	}
}

// TestWarmRangeEmpty checks degenerate ranges are no-ops.
func TestWarmRangeEmpty(t *testing.T) {
	s := NewTLBSet(machine.CoreI9())
	s.WarmRanges(nil)
	s.WarmRanges([]TLBRange{{Start: 0x1000, End: 0x1000}, {Start: 0x2000, End: 0x1000, Code: true}})
	for _, tl := range []*TLB{s.ITLB, s.DTLB, s.STLB} {
		if tl.clock != 0 {
			t.Fatalf("%s: empty ranges advanced the clock to %d", tl.name, tl.clock)
		}
	}
}

// TestTLBResetBehavesNew drives a used-then-reset TLBSet and a new one
// with the same prewarm batch and lookup stream: every lookup and the
// stats must agree, although Reset leaves timestamps and MRU hints behind.
func TestTLBResetBehavesNew(t *testing.T) {
	used, fresh := NewTLBSet(machine.CoreI9()), NewTLBSet(machine.CoreI9())
	r := rng.New(9)
	for i := 0; i < 20000; i++ {
		used.DTLB.Lookup(uint64(r.Intn(1 << 26)))
		used.ITLB.Lookup(uint64(r.Intn(1 << 24)))
	}
	used.Reset()
	batch := []TLBRange{{Start: 0, End: 1 << 22}, {Start: 1 << 20, End: 1 << 23, Code: true}}
	used.WarmRanges(batch)
	fresh.WarmRanges(batch)
	for i := 0; i < 20000; i++ {
		d, a := uint64(r.Intn(1<<26)), uint64(r.Intn(1<<24))
		if used.DTLB.Lookup(d) != fresh.DTLB.Lookup(d) || used.ITLB.Lookup(a) != fresh.ITLB.Lookup(a) {
			t.Fatalf("lookup %d: reset and new TLBs disagree", i)
		}
	}
	for _, p := range [][2]*TLB{{used.ITLB, fresh.ITLB}, {used.DTLB, fresh.DTLB}, {used.STLB, fresh.STLB}} {
		if p[0].Stats != p[1].Stats {
			t.Fatalf("%s stats %+v, want %+v", p[0].name, p[0].Stats, p[1].Stats)
		}
	}
}
