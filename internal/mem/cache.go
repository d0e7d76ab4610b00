// Package mem implements the memory-hierarchy simulators behind the
// paper's cache and TLB metrics: set-associative caches with LRU
// replacement, composed into an L1I/L1D + unified L2 + LLC hierarchy, and
// I-/D-TLB models with a unified second-level TLB. The perf harness feeds
// synthetic address streams through these structures; every cache/TLB MPKI
// value in the reproduced figures is counted here rather than assumed.
package mem

import (
	"fmt"

	"repro/internal/machine"
)

// ReplacementPolicy selects how a victim way is chosen on fill.
type ReplacementPolicy int

const (
	// LRU is the default policy used everywhere in the reproduction.
	LRU ReplacementPolicy = iota
	// Random replacement exists for the ablation bench comparing MPKI
	// sensitivity to the replacement policy.
	Random
)

// Cache is one level of set-associative cache.
//
// Line storage is packed: each way holds (line<<1)|1 when valid and 0 when
// empty, so the way scan is a single word compare and no separate valid
// bitmap is needed. Line ids are at most 2^58 for 64-bit addresses and
// 64-byte lines, so the shift cannot lose bits. A per-set MRU way index
// short-circuits the scan on the common repeat-hit pattern.
//
// Each set's MRU way shares a word with the set's generation stamp, so a
// cache can be emptied in O(1) (Reset) and a prewarm batch on an empty
// cache can be recorded rather than inserted: a set from an older generation
// is stale, and is emptied and handed its share of the recorded batch the
// first time anything touches it. A run then pays only for the sets it
// uses.
type Cache struct {
	sets     int
	ways     int
	lineBits uint
	setBits  uint
	setMask  uint64
	policy   ReplacementPolicy

	tags []uint64 // sets*ways, packed (line<<1)|1; 0 = empty
	ts   []uint64 // LRU timestamps
	// stamp[set] is gen<<stampGenShift | MRU way. A set stamped below
	// live belongs to an earlier generation and is stale.
	stamp []uint32
	live  uint32 // current generation << stampGenShift
	// batch is the prewarm batch recorded on the current generation's
	// empty cache; stale sets replay their share of it when materialized.
	batch []insertJob
	clock uint64
	rseed uint64 // cheap xorshift state for Random policy

	Stats CacheStats
}

// CacheStats counts accesses and misses.
type CacheStats struct {
	Accesses uint64
	Misses   uint64
}

// Stamp layout: the generation in the high half, the MRU way in the low.
const (
	stampGenShift = 16
	stampWayMask  = 1<<stampGenShift - 1
	// maxLive is the last generation before the counter wraps.
	maxLive = ^uint32(0) &^ stampWayMask
	// rseedInit is the Random policy's xorshift seed on a new cache.
	rseedInit = 0x2545f4914f6cdd1d
)

// MissRate returns misses/accesses, or 0 when idle.
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// NewCache builds a cache from geometry. It panics on invalid geometry
// (callers validate machine.Config first).
func NewCache(name string, g machine.CacheGeom, policy ReplacementPolicy) *Cache {
	sets := g.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache %s has invalid set count %d", name, sets))
	}
	lineBits := uint(0)
	for l := g.LineBytes; l > 1; l >>= 1 {
		lineBits++
	}
	if 1<<lineBits != g.LineBytes {
		panic(fmt.Sprintf("mem: cache %s line size %d not a power of two", name, g.LineBytes))
	}
	if g.Ways > stampWayMask+1 {
		panic(fmt.Sprintf("mem: cache %s has %d ways, more than %d", name, g.Ways, stampWayMask+1))
	}
	setBits := uint(0)
	for s := sets; s > 1; s >>= 1 {
		setBits++
	}
	// Generation 1 over zeroed stamps: every set starts stale, which for
	// a new cache only means empty.
	return &Cache{
		sets:     sets,
		ways:     g.Ways,
		lineBits: lineBits,
		setBits:  setBits,
		setMask:  uint64(sets - 1),
		policy:   policy,
		tags:     make([]uint64, sets*g.Ways),
		ts:       make([]uint64, sets*g.Ways),
		stamp:    make([]uint32, sets),
		live:     1 << stampGenShift,
		rseed:    rseedInit,
	}
}

// Reset returns the cache to the state NewCache gives it: empty, clock 0,
// zero stats. It is O(1): advancing the generation makes every set stale,
// and a stale set is emptied when first touched.
func (c *Cache) Reset() {
	if c.live == maxLive {
		// The generation counter is exhausted: clear the stamps once
		// and start over.
		clear(c.stamp)
		c.live = 0
	}
	c.live += 1 << stampGenShift
	c.batch = c.batch[:0]
	c.clock = 0
	c.rseed = rseedInit
	c.Stats = CacheStats{}
}

// materialize brings a stale set into the current generation: it empties
// the set, replays the set's share of the recorded batch and returns the
// set's new stamp.
func (c *Cache) materialize(set uint64) uint32 {
	base := int(set) * c.ways
	clear(c.tags[base : base+c.ways])
	clear(c.ts[base : base+c.ways])
	st := c.live
	if len(c.batch) > 0 {
		if w := c.replay(set, base); w >= 0 {
			st |= uint32(w)
		}
	}
	c.stamp[set] = st
	return st
}

// Access looks up addr, filling on miss. It returns true on hit.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	c.Stats.Accesses++
	line := addr >> c.lineBits
	set := line & c.setMask
	word := line<<1 | 1
	base := int(set) * c.ways

	st := c.stamp[set]
	if st < c.live {
		st = c.materialize(set)
	}
	// MRU fast path: repeated hits to the same line skip the way scan.
	if m := base + int(st&stampWayMask); c.tags[m] == word {
		c.ts[m] = c.clock
		return true
	}
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == word {
			c.ts[base+w] = c.clock
			c.stamp[set] = c.live | uint32(w)
			return true
		}
	}
	c.Stats.Misses++
	victim := c.fill(base, word)
	c.stamp[set] = c.live | uint32(victim-base)
	return false
}

// Probe reports whether addr is present without updating state or stats.
func (c *Cache) Probe(addr uint64) bool {
	line := addr >> c.lineBits
	set := line & c.setMask
	word := line<<1 | 1
	base := int(set) * c.ways
	if c.stamp[set] < c.live {
		if len(c.batch) == 0 {
			// Stale with nothing recorded: empty. Not materializing
			// keeps a clock-0 cache free to record a batch.
			return false
		}
		c.materialize(set)
	}
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == word {
			return true
		}
	}
	return false
}

// Insert fills addr without counting an access: used by the prefetcher
// model to install lines ahead of demand, and by InsertRanges on a cache
// it cannot record on. The presence scan and victim selection share one
// pass over the set.
func (c *Cache) Insert(addr uint64) {
	c.clock++
	line := addr >> c.lineBits
	set := line & c.setMask
	word := line<<1 | 1
	base := int(set) * c.ways
	if c.stamp[set] < c.live {
		c.materialize(set)
	}

	if c.policy != LRU {
		for w := 0; w < c.ways; w++ {
			if c.tags[base+w] == word {
				return // already present
			}
		}
		victim := c.fill(base, word)
		c.stamp[set] = c.live | uint32(victim-base)
		return
	}
	// LRU: fused presence + victim scan. Victim preference matches fill:
	// the first empty way, else the lowest timestamp in scan order.
	empty := -1
	victim := base
	oldest := c.ts[base]
	for w := 0; w < c.ways; w++ {
		i := base + w
		t := c.tags[i]
		if t == word {
			return // already present
		}
		if t == 0 {
			if empty < 0 {
				empty = i
			}
			continue
		}
		if c.ts[i] < oldest {
			oldest = c.ts[i]
			victim = i
		}
	}
	if empty >= 0 {
		victim = empty
	}
	c.tags[victim] = word
	c.ts[victim] = c.clock
	c.stamp[set] = c.live | uint32(victim-base)
}

// InsertRange installs every line of [start, end) in ascending address
// order, as InsertRanges does for a batch of one range.
func (c *Cache) InsertRange(start, end uint64) {
	c.InsertRanges([][2]uint64{{start, end}})
}

// InsertRanges installs a batch of byte ranges, in order, with state,
// statistics and clock evolution identical to
//
//	for _, r := range ranges { for a := r[0]; a < r[1]; a += lineSize { c.Insert(a) } }
//
// On an LRU cache of at most maxBulkWays ways with clock 0 — new or just
// Reset — the batch is only recorded: every set is stale, and replays its
// share of the batch when first touched (see replay). Every tag write
// advances the clock, so at clock 0 nothing has been filled in this
// generation and no batch is recorded yet. This is the production prewarm
// case; its cost follows the sets a run goes on to use rather than the
// size of the cache. Any other cache runs the per-line loop above.
func (c *Cache) InsertRanges(ranges [][2]uint64) {
	if c.clock != 0 || c.policy != LRU || c.ways > maxBulkWays {
		for _, r := range ranges {
			c.insertRangeSlow(r[0], r[1])
		}
		return
	}
	jobs := c.batch[:0] // empty at clock 0, so its storage is free
	sets := uint64(c.sets)
	var clock uint64
	for _, r := range ranges {
		if r[1] <= r[0] {
			continue
		}
		n := (r[1] - r[0] + (1 << c.lineBits) - 1) >> c.lineBits
		first := r[0] >> c.lineBits
		j := insertJob{
			first: first, last: first + n - 1,
			mFull: n / sets, mRem: n % sets,
			clockBase: clock,
			startSet:  first & c.setMask,
			cnt:       min(n, sets),
		}
		// A later range overlapping an earlier one can presence-hit the
		// earlier range's fills, so its inserts need residency checks.
		for i := range jobs {
			if j.first <= jobs[i].last && jobs[i].first <= j.last {
				j.overlaps = true
				break
			}
		}
		jobs = append(jobs, j)
		clock += n
	}
	c.batch = jobs
	c.clock = clock
}

// insertRangeSlow is the per-line reference loop: the path of a cache that
// has been touched since its last Reset, of the Random policy and of
// associativities the recorded batch does not model.
func (c *Cache) insertRangeSlow(start, end uint64) {
	lineSize := uint64(1) << c.lineBits
	for a := start; a < end; a += lineSize {
		c.Insert(a)
	}
}

// maxBulkWays bounds the associativity the recorded batch supports; wider
// caches use the per-line loop.
const maxBulkWays = 32

// insertJob is one range of an InsertRanges batch, in line coordinates.
type insertJob struct {
	first, last uint64 // inclusive line ids
	mFull, mRem uint64 // lines per set: mFull, +1 for the first mRem sets
	clockBase   uint64 // clock value before this job's first insert
	startSet    uint64 // set of the first line
	cnt         uint64 // touched set count, min(lines, sets)
	overlaps    bool   // line bounds intersect an earlier job in the batch
}

// replay fills the just-emptied set s at base with its share of the
// recorded batch and returns the last way filled, or -1. Insert never
// couples distinct sets, so a set can take its share alone. With every way
// empty, the per-line path's victims are fixed: the empty ways in way
// order, then the batch's own fills oldest first, which is way order
// again. So the victim of the set's p-th fill is way p mod ways, and a
// fill past the first `ways` overwrites an earlier one, exactly as the
// per-line path would. Presence checks remain only for jobs overlapping an
// earlier job of the batch (nursery re-warms).
func (c *Cache) replay(s uint64, base int) int32 {
	sets := uint64(c.sets)
	ways := c.ways
	var wayJ [maxBulkWays]int32 // way -> pending in-bounds position, mask mode
	popIdx := 0
	lastFill := int32(-1)
	for ji := range c.batch {
		j := &c.batch[ji]
		k := (s - j.startSet) & c.setMask
		if k >= j.cnt {
			continue
		}
		m := j.mFull
		if k < j.mRem {
			m++
		}
		lineBase := j.first + k
		if !j.overlaps {
			idx := k
			line := lineBase
			for t := uint64(0); t < m; t++ {
				if popIdx == ways {
					popIdx = 0
				}
				i := base + popIdx
				c.tags[i] = line<<1 | 1
				c.ts[i] = j.clockBase + idx + 1
				lastFill = int32(popIdx)
				popIdx++
				idx += sets
				line += sets
			}
			continue
		}
		useMask := m <= 64
		var mask uint64
		if useMask {
			mask = c.residentMask(base, j, lineBase, &wayJ)
		}
		idx := k
		line := lineBase
		for t := uint64(0); t < m; t++ {
			if !c.present(base, useMask, mask, t, line) {
				if popIdx == ways {
					popIdx = 0
				}
				w := int32(popIdx)
				popIdx++
				if useMask {
					mask = evictPending(mask, &wayJ, w)
				}
				i := base + int(w)
				c.tags[i] = line<<1 | 1
				c.ts[i] = j.clockBase + idx + 1
				lastFill = w
			}
			idx += sets
			line += sets
		}
	}
	return lastFill
}

// residentMask returns which of job j's lines landing in the set at base
// are resident, as bits of their position on the set's sub-sequence from
// lineBase, and records each resident way's position in wayJ (-1 for the
// others).
func (c *Cache) residentMask(base int, j *insertJob, lineBase uint64, wayJ *[maxBulkWays]int32) uint64 {
	var mask uint64
	for w := 0; w < c.ways; w++ {
		wayJ[w] = -1
		t := c.tags[base+w]
		if t == 0 {
			continue
		}
		if line := t >> 1; line >= j.first && line <= j.last {
			p := (line - lineBase) >> c.setBits
			wayJ[w] = int32(p)
			mask |= 1 << p
		}
	}
	return mask
}

// present reports whether the t-th line of a job's sub-sequence in the set
// at base is resident: from the mask, or (beyond 64 lines) by a scan.
func (c *Cache) present(base int, useMask bool, mask, t, line uint64) bool {
	if useMask {
		return mask&(1<<t) != 0
	}
	word := line<<1 | 1
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == word {
			return true
		}
	}
	return false
}

// evictPending clears the mask bit of the line way w holds, if it is a
// not-yet-reached line of the current job: evicting it makes its turn a
// real re-fill.
func evictPending(mask uint64, wayJ *[maxBulkWays]int32, w int32) uint64 {
	if pj := wayJ[w]; pj >= 0 {
		mask &^= 1 << uint64(pj)
	}
	wayJ[w] = -1
	return mask
}

// fill selects a victim way for word in the set at base, installs it, and
// returns the victim index.
func (c *Cache) fill(base int, word uint64) int {
	victim := base
	switch c.policy {
	case LRU:
		oldest := c.ts[base]
		for w := 0; w < c.ways; w++ {
			if c.tags[base+w] == 0 {
				victim = base + w
				break
			}
			if c.ts[base+w] < oldest {
				oldest = c.ts[base+w]
				victim = base + w
			}
		}
	case Random:
		// xorshift64*
		c.rseed ^= c.rseed >> 12
		c.rseed ^= c.rseed << 25
		c.rseed ^= c.rseed >> 27
		victim = base + int((c.rseed*0x2545f4914f6cdd1d)>>33)%c.ways
	}
	c.tags[victim] = word
	c.ts[victim] = c.clock
	return victim
}

// ResetStats zeroes the counters without touching cache contents; used to
// discard warmup runs the way §III-A discards the first of 15 runs.
func (c *Cache) ResetStats() { c.Stats = CacheStats{} }
