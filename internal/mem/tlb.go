package mem

import (
	"fmt"
	"math/bits"

	"repro/internal/machine"
)

// TLB models a translation lookaside buffer: set-associative or fully
// associative over virtual page numbers, LRU replacement. A second-level
// (unified) TLB can back the first level, matching both the Intel STLB and
// the Arm "2K-entry secondary TLB" of §III-B.
//
// Entry storage is packed the same way as mem.Cache: a way holds
// (vpn<<1)|1 when valid and 0 when empty, so lookups are single word
// compares, and a per-set MRU index short-circuits the scan for the
// same-page runs that dominate real address streams.
type TLB struct {
	name     string
	sets     int
	ways     int
	pageBits uint
	setMask  uint64

	tags  []uint64 // sets*ways, packed (vpn<<1)|1; 0 = empty
	ts    []uint64
	mru   []int32 // per-set most-recently-hit way
	clock uint64

	next *TLB // optional second level

	Stats TLBStats
}

// TLBStats counts lookups and misses. A first-level miss that hits in the
// second level is counted in SecondLevelHits and does NOT count as a miss
// for MPKI purposes (matching how perf exposes walk-causing misses).
type TLBStats struct {
	Lookups         uint64
	Misses          uint64 // misses that required a page walk
	SecondLevelHits uint64
}

// NewTLB builds a TLB from geometry; Ways == 0 means fully associative.
// The optional next TLB is consulted on a first-level miss.
func NewTLB(name string, g machine.TLBGeom, next *TLB) *TLB {
	if g.Entries <= 0 {
		panic(fmt.Sprintf("mem: TLB %s has %d entries", name, g.Entries))
	}
	pageBits := uint(0)
	for p := g.PageSize; p > 1; p >>= 1 {
		pageBits++
	}
	if 1<<pageBits != g.PageSize {
		panic(fmt.Sprintf("mem: TLB %s page size %d not a power of two", name, g.PageSize))
	}
	ways := g.Ways
	if ways == 0 {
		ways = g.Entries // fully associative: one set
	}
	sets := g.Entries / ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: TLB %s yields invalid set count %d", name, sets))
	}
	return &TLB{
		name:     name,
		sets:     sets,
		ways:     ways,
		pageBits: pageBits,
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*ways),
		ts:       make([]uint64, sets*ways),
		mru:      make([]int32, sets),
		next:     next,
	}
}

// Lookup translates addr, returning true when the first level hits.
// On a first-level miss the second level is consulted; only a miss in both
// counts as a walk-causing miss.
func (t *TLB) Lookup(addr uint64) bool {
	t.clock++
	t.Stats.Lookups++
	vpn := addr >> t.pageBits
	set := vpn & t.setMask
	word := vpn<<1 | 1
	base := int(set) * t.ways
	if m := base + int(t.mru[set]); t.tags[m] == word {
		t.ts[m] = t.clock
		return true
	}
	for w := 0; w < t.ways; w++ {
		if t.tags[base+w] == word {
			t.ts[base+w] = t.clock
			t.mru[set] = int32(w)
			return true
		}
	}
	// First-level miss: consult second level if present.
	if t.next != nil && t.next.lookupInternal(vpn) {
		t.Stats.SecondLevelHits++
		t.fillSet(set, word)
		return false // first level missed, but no walk
	}
	t.Stats.Misses++
	t.fillSet(set, word)
	if t.next != nil {
		t.next.insert(vpn)
	}
	return false
}

// lookupInternal checks the TLB by VPN without recursing further.
func (t *TLB) lookupInternal(vpn uint64) bool {
	t.clock++
	set := vpn & t.setMask
	word := vpn<<1 | 1
	base := int(set) * t.ways
	if m := base + int(t.mru[set]); t.tags[m] == word {
		t.ts[m] = t.clock
		return true
	}
	for w := 0; w < t.ways; w++ {
		if t.tags[base+w] == word {
			t.ts[base+w] = t.clock
			t.mru[set] = int32(w)
			return true
		}
	}
	return false
}

func (t *TLB) insert(vpn uint64) {
	t.clock++
	t.fillSet(vpn&t.setMask, vpn<<1|1)
}

// fillSet installs word into its set: the first empty way, else the LRU
// way, and marks the filled way MRU.
func (t *TLB) fillSet(set, word uint64) {
	base := int(set) * t.ways
	victim := base
	oldest := t.ts[base]
	for w := 0; w < t.ways; w++ {
		if t.tags[base+w] == 0 {
			victim = base + w
			break
		}
		if t.ts[base+w] < oldest {
			oldest = t.ts[base+w]
			victim = base + w
		}
	}
	t.tags[victim] = word
	t.ts[victim] = t.clock
	t.mru[set] = int32(victim - base)
}

// Warm installs the page containing addr into this TLB and its second
// level without touching statistics — prewarming for long-running
// processes whose translations are resident before measurement begins.
func (t *TLB) Warm(addr uint64) {
	vpn := addr >> t.pageBits
	t.insert(vpn)
	if t.next != nil {
		t.next.insert(vpn)
	}
}

// pageRun is n consecutive pages from VPN v0.
type pageRun struct{ v0, n uint64 }

// pages returns the run of pages Warm would install when called at start,
// start+pageSize, ... while below end. The count matches that loop even
// for unaligned bounds: advancing by one page advances the VPN by one.
func (t *TLB) pages(start, end uint64) pageRun {
	if end <= start {
		return pageRun{}
	}
	return pageRun{start >> t.pageBits, (end - start + 1<<t.pageBits - 1) >> t.pageBits}
}

// insertRuns installs the pages of runs, in order, with exactly the state
// transitions of one insert call per page. A TLB touched since its last
// Reset (clock > 0) runs that loop.
//
// At clock 0 — new or just Reset — every set is empty. Inserts never
// check presence (duplicate translations are allowed, as in the per-page
// path), so every insert fills, and an empty set's victims are its ways in
// way order, then — because each fill's timestamp exceeds all earlier
// ones — the same order again. The j-th of a set's m fills lands in way
// j mod ways, so only its last min(m, ways) fills survive, and only those
// are written. Insert i of the batch gets ts i+1, and consecutive VPNs
// round-robin sets, so set s takes the pages v0+k of a run with
// k ≡ s-v0 (mod sets).
func (t *TLB) insertRuns(runs []pageRun) {
	if t.clock != 0 {
		for _, r := range runs {
			for k := uint64(0); k < r.n; k++ {
				t.insert(r.v0 + k)
			}
		}
		return
	}
	var total uint64
	for _, r := range runs {
		total += r.n
	}
	if total == 0 {
		return
	}
	setBits := uint(bits.TrailingZeros(uint(t.sets)))
	// fills is the number of pages of r that map to set s.
	fills := func(r pageRun, s uint64) uint64 {
		c := r.n >> setBits
		if (s-r.v0)&t.setMask < r.n&t.setMask {
			c++
		}
		return c
	}
	ways := uint64(t.ways)
	for s := uint64(0); s <= t.setMask; s++ {
		var m uint64
		for _, r := range runs {
			m += fills(r, s)
		}
		if m == 0 {
			continue
		}
		base := int(s) * t.ways
		// Write the survivors, last fill first: fill m-1 takes way
		// (m-1) mod ways and becomes MRU, each earlier fill takes the way
		// before.
		w := int((m - 1) % ways)
		t.mru[s] = int32(w)
		left := min(m, ways)
		end := total // batch index one past the current run
		for ri := len(runs) - 1; left > 0; ri-- {
			r := runs[ri]
			end -= r.n
			c := fills(r, s)
			if c == 0 {
				continue
			}
			k := (s-r.v0)&t.setMask + (c-1)<<setBits // the run's last page in s
			for ; c > 0 && left > 0; c-- {
				t.tags[base+w] = (r.v0+k)<<1 | 1
				t.ts[base+w] = end + k + 1
				k -= uint64(t.sets)
				left--
				if w == 0 {
					w = t.ways
				}
				w--
			}
		}
	}
	t.clock = total
}

// Flush invalidates all entries of this level, modeling address-space
// churn after JIT page remapping; TLBSet.Flush flushes every level once.
// Timestamps and MRU hints of empty ways are never read, so they stay.
func (t *TLB) Flush() {
	clear(t.tags)
}

// Reset returns the TLB to a state that behaves as NewTLB's: empty,
// clock 0, zero stats. Like Flush it leaves the timestamps and MRU hints,
// which no lookup or fill reads in an empty way. The second level is left
// alone; TLBSet.Reset resets it.
func (t *TLB) Reset() {
	clear(t.tags)
	t.clock = 0
	t.Stats = TLBStats{}
}

// TLBSet groups a core's translation structures.
type TLBSet struct {
	ITLB, DTLB *TLB
	STLB       *TLB

	iRuns, dRuns, sRuns []pageRun // WarmRanges scratch
}

// TLBRange is a range of addresses [Start, End) whose pages
// TLBSet.WarmRanges installs: through the I-TLB when Code is set, else
// through the D-TLB.
type TLBRange struct {
	Start, End uint64
	Code       bool
}

// NewTLBSet builds I-TLB and D-TLB backed by a shared unified STLB from a
// machine config.
func NewTLBSet(cfg *machine.Config) *TLBSet {
	stlb := NewTLB("STLB", cfg.STLB, nil)
	return &TLBSet{
		ITLB: NewTLB("ITLB", cfg.ITLB, stlb),
		DTLB: NewTLB("DTLB", cfg.DTLB, stlb),
		STLB: stlb,
	}
}

// WarmRanges installs the pages of each range, in order, leaving exactly
// the state of Warm called on the range's first level at Start,
// Start+pageSize, ... below End: each first level takes its own ranges and
// the STLB takes every page of both sides, interleaved in range order.
// Each TLB handles its share as one batch: written survivors-only when the
// TLB is untouched since its Reset, one insert per page otherwise (see
// insertRuns).
func (s *TLBSet) WarmRanges(ranges []TLBRange) {
	i, d, all := s.iRuns[:0], s.dRuns[:0], s.sRuns[:0]
	for _, r := range ranges {
		if r.Code {
			run := s.ITLB.pages(r.Start, r.End)
			i, all = append(i, run), append(all, run)
		} else {
			run := s.DTLB.pages(r.Start, r.End)
			d, all = append(d, run), append(all, run)
		}
	}
	s.ITLB.insertRuns(i)
	s.DTLB.insertRuns(d)
	s.STLB.insertRuns(all)
	s.iRuns, s.dRuns, s.sRuns = i, d, all
}

// Flush invalidates every level once.
func (s *TLBSet) Flush() {
	s.ITLB.Flush()
	s.DTLB.Flush()
	s.STLB.Flush()
}

// Reset empties every level, as NewTLBSet builds them.
func (s *TLBSet) Reset() {
	s.ITLB.Reset()
	s.DTLB.Reset()
	s.STLB.Reset()
}

// ResetStats zeroes all counters.
func (s *TLBSet) ResetStats() {
	s.ITLB.Stats = TLBStats{}
	s.DTLB.Stats = TLBStats{}
	s.STLB.Stats = TLBStats{}
}
