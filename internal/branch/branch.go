// Package branch implements the branch prediction structures the paper's
// control-flow metrics depend on: a gshare direction predictor with 2-bit
// saturating counters and a set-associative Branch Target Buffer (BTB).
//
// The JIT cold-start effect central to §VII-A1 — "since JITing a code page
// changes the branch addresses, the predictor state is lost even if the
// control flow behavior of those branches is unchanged" — is modeled
// faithfully: predictor tables are indexed by (hashed) PC, so relocating a
// code page makes its branches land in cold table entries. The Flush and
// FlushRange entry points let the JIT model invalidate exactly the state
// belonging to regenerated pages.
package branch

import "fmt"

// Predictor combines a gshare direction predictor and a BTB.
type Predictor struct {
	bits    uint   // log2 of table size
	mask    uint64 // table index mask
	table   []uint8
	history uint64

	btbWays int
	btbSets int
	btbMask uint64
	// Packed BTB storage: a way holds (tag<<1)|1 when valid, 0 when
	// empty (tags are pc>>2, so the shift cannot overflow), and a
	// per-set MRU index short-circuits the scan for hot branch sites.
	btbTags  []uint64
	btbTS    []uint64
	btbMRU   []int32
	btbClock uint64

	Stats Stats
}

// Stats counts predictions and mispredictions.
type Stats struct {
	Branches      uint64
	Mispredicts   uint64
	BTBLookups    uint64
	BTBMisses     uint64
	TakenBranches uint64
}

// MispredictRate returns mispredicts per branch.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// BTBMissRate returns BTB misses per lookup.
func (s Stats) BTBMissRate() float64 {
	if s.BTBLookups == 0 {
		return 0
	}
	return float64(s.BTBMisses) / float64(s.BTBLookups)
}

// New builds a predictor: a gshare table with 2^tableBits counters and a
// BTB with the given entry count and associativity.
func New(tableBits uint, btbEntries, btbWays int) *Predictor {
	if tableBits == 0 || tableBits > 24 {
		panic(fmt.Sprintf("branch: tableBits %d out of range", tableBits))
	}
	if btbEntries <= 0 || btbWays <= 0 || btbEntries%btbWays != 0 {
		panic(fmt.Sprintf("branch: bad BTB geometry %d/%d", btbEntries, btbWays))
	}
	sets := btbEntries / btbWays
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("branch: BTB set count %d not a power of two", sets))
	}
	size := 1 << tableBits
	p := &Predictor{
		bits:    tableBits,
		mask:    uint64(size - 1),
		table:   make([]uint8, size),
		btbWays: btbWays,
		btbSets: sets,
		btbMask: uint64(sets - 1),
		btbTags: make([]uint64, btbEntries),
		btbTS:   make([]uint64, btbEntries),
		btbMRU:  make([]int32, sets),
	}
	// Weakly not-taken initial state.
	for i := range p.table {
		p.table[i] = 1
	}
	return p
}

func (p *Predictor) index(pc uint64) uint64 {
	return (pc>>2 ^ p.history) & p.mask
}

// Predict executes one conditional branch at pc with the actual outcome
// `taken`, returning whether the prediction was correct, and trains the
// predictor. Taken branches also consult and train the BTB (a taken branch
// whose target is absent from the BTB causes a front-end re-steer even if
// the direction was right, which the Top-Down model charges to branch
// re-steers).
func (p *Predictor) Predict(pc uint64, taken bool) (dirCorrect, btbHit bool) {
	p.Stats.Branches++
	idx := p.index(pc)
	counter := p.table[idx]
	predictTaken := counter >= 2
	dirCorrect = predictTaken == taken

	if !dirCorrect {
		p.Stats.Mispredicts++
	}
	// Train the 2-bit counter.
	if taken && counter < 3 {
		p.table[idx] = counter + 1
	} else if !taken && counter > 0 {
		p.table[idx] = counter - 1
	}
	// Global history update (10 bits of it participate in hashing).
	p.history = ((p.history << 1) | boolBit(taken)) & 0x3ff

	btbHit = true
	if taken {
		p.Stats.TakenBranches++
		btbHit = p.btbAccess(pc)
	}
	return dirCorrect, btbHit
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// btbAccess looks up pc in the BTB, filling on miss; returns hit.
func (p *Predictor) btbAccess(pc uint64) bool {
	p.btbClock++
	p.Stats.BTBLookups++
	tag := pc >> 2
	set := tag & p.btbMask
	word := tag<<1 | 1
	base := int(set) * p.btbWays
	if m := base + int(p.btbMRU[set]); p.btbTags[m] == word {
		p.btbTS[m] = p.btbClock
		return true
	}
	for w := 0; w < p.btbWays; w++ {
		if p.btbTags[base+w] == word {
			p.btbTS[base+w] = p.btbClock
			p.btbMRU[set] = int32(w)
			return true
		}
	}
	p.Stats.BTBMisses++
	victim := base
	oldest := p.btbTS[base]
	for w := 0; w < p.btbWays; w++ {
		if p.btbTags[base+w] == 0 {
			victim = base + w
			break
		}
		if p.btbTS[base+w] < oldest {
			oldest = p.btbTS[base+w]
			victim = base + w
		}
	}
	p.btbTags[victim] = word
	p.btbTS[victim] = p.btbClock
	p.btbMRU[set] = int32(victim - base)
	return false
}

// Flush discards all predictor and BTB state (full cold start).
func (p *Predictor) Flush() {
	for i := range p.table {
		p.table[i] = 1
	}
	p.history = 0
	for i := range p.btbTags {
		p.btbTags[i] = 0
	}
}

// FlushRange invalidates BTB entries and resets direction counters for
// branches whose PC lies in [start, start+size): the state the JIT
// destroys when it regenerates one code page. Direction counters are
// hash-indexed, so the corresponding entries are reset pessimistically by
// scanning PCs at 4-byte granularity; size is bounded by code-page size so
// this stays cheap.
func (p *Predictor) FlushRange(start, size uint64) {
	firstWord := (start>>2)<<1 | 1
	lastWord := ((start+size-1)>>2)<<1 | 1
	for i, t := range p.btbTags {
		if t != 0 && t >= firstWord && t <= lastWord {
			p.btbTags[i] = 0
		}
	}
	for pc := start; pc < start+size; pc += 4 {
		p.table[p.index(pc)] = 1
	}
}

// Reset returns the predictor to a state that behaves as New's: weakly
// not-taken counters, empty history and BTB, zero stats. Like Flush it
// leaves the BTB timestamps and MRU hints, which no lookup or fill reads
// in an empty way.
func (p *Predictor) Reset() {
	p.Flush()
	p.btbClock = 0
	p.Stats = Stats{}
}

// ResetStats zeroes the counters without touching learned state.
func (p *Predictor) ResetStats() { p.Stats = Stats{} }
