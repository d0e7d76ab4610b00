// Package noc models the shared last-level cache as a set of address-
// interleaved slices connected by a network-on-chip, reproducing the
// mechanism behind §VI-B2: as an ASP.NET application scales across cores,
// per-core LLC MPKI stays roughly flat, but the *latency* of LLC accesses
// grows because independent cores contend for the ports of individual LLC
// slices and for NoC bandwidth. That latency growth is what turns into the
// growing "L3 bound" share of Figs 11-12.
package noc

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
)

// SharedLLC is an LLC broken into slices; addresses interleave across
// slices at line granularity, as in Intel's ring/mesh designs.
type SharedLLC struct {
	Slices    []*mem.Cache
	sliceMask uint64
	sliceBits uint
	lineBits  uint
	hashed    bool

	portWidth int // accesses per slice per cycle before queueing
	hopLat    int // cycles per NoC hop
	baseLat   int // uncontended LLC access latency

	// Per-slice pressure accounting for the current measurement window.
	sliceAccesses []uint64
	windowCycles  uint64

	Stats Stats
}

// Stats aggregates shared-LLC behavior over a measurement window.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	TotalLat   uint64 // sum of per-access latencies incl. queueing
	QueueDelay uint64 // portion of TotalLat caused by contention
}

// MissRate returns LLC misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// AvgLatency returns the mean LLC access latency in cycles.
func (s Stats) AvgLatency() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.TotalLat) / float64(s.Accesses)
}

// New builds a shared LLC from a machine config. The total LLC capacity is
// divided evenly across cfg.LLCSlices slices.
func New(cfg *machine.Config, policy mem.ReplacementPolicy) *SharedLLC {
	n := cfg.LLCSlices
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("noc: slice count %d must be a positive power of two", n))
	}
	sliceGeom := machine.CacheGeom{
		SizeBytes: cfg.L3.SizeBytes / n,
		LineBytes: cfg.L3.LineBytes,
		Ways:      cfg.L3.Ways,
	}
	lineBits := uint(0)
	for l := cfg.L3.LineBytes; l > 1; l >>= 1 {
		lineBits++
	}
	sliceBits := uint(0)
	for m := n - 1; m > 0; m >>= 1 {
		sliceBits++
	}
	s := &SharedLLC{
		Slices:        make([]*mem.Cache, n),
		sliceMask:     uint64(n - 1),
		sliceBits:     sliceBits,
		lineBits:      lineBits,
		portWidth:     cfg.SlicePortWidth,
		hopLat:        cfg.NoCHopLat,
		baseLat:       cfg.L3Lat,
		sliceAccesses: make([]uint64, n),
	}
	for i := range s.Slices {
		s.Slices[i] = mem.NewCache(fmt.Sprintf("LLC-slice%d", i), sliceGeom, policy)
	}
	return s
}

// UseHashedPlacement switches slice selection from simple line
// interleaving to an address hash, the §VIII "data placement strategies
// in LLC slices to reduce contention at the NoC" proposal: hashing
// decorrelates hot strided footprints from slice indices, flattening
// per-slice pressure.
func (s *SharedLLC) UseHashedPlacement(on bool) { s.hashed = on }

// SliceFor returns the slice index addr maps to.
func (s *SharedLLC) SliceFor(addr uint64) int {
	line := addr >> s.lineBits
	if s.hashed {
		h := line * 0x9e3779b97f4a7c15
		h ^= h >> 31
		return int(h & s.sliceMask)
	}
	return int(line & s.sliceMask)
}

// sliceLocal strips the slice-selection bits out of the line address so
// the slice's internal set index uses the full set range. Without this,
// every line in a slice would share its low line bits and only 1/N of the
// slice's sets would ever be used. Under hashed placement the slice index
// is not a contiguous bit field, so the full line address is kept (two
// distinct lines must never collapse to one slice-local address).
func (s *SharedLLC) sliceLocal(addr uint64) uint64 {
	if s.hashed {
		return addr &^ uint64(1<<s.lineBits-1)
	}
	return (addr >> s.lineBits >> s.sliceBits) << s.lineBits
}

// Access performs one LLC access from the given core, with activeCores
// cores concurrently generating traffic. It returns (hit, latency in
// cycles). Latency = base + NoC hops + queueing delay, where queueing
// grows with the measured per-slice pressure: λ/(μ−λ) shaped (M/M/1-like),
// capped to keep the model stable under saturation.
func (s *SharedLLC) Access(core int, addr uint64, activeCores int) (bool, int) {
	idx := s.SliceFor(addr)
	hit := s.Slices[idx].Access(s.sliceLocal(addr))

	s.Stats.Accesses++
	if !hit {
		s.Stats.Misses++
	}
	s.sliceAccesses[idx]++
	s.windowCycles++ // one access per call advances the window clock

	// Distance: average hop count from a core to a random slice grows
	// slowly with the die size; model as half the mesh diameter.
	hops := 1 + activeCores/4
	lat := s.baseLat + hops*s.hopLat

	// Contention: more active cores inject more traffic, and hot slices
	// (those receiving an outsized fraction of accesses) queue longer at
	// their ports. M/M/1-shaped with a utilization cap for stability.
	if s.windowCycles > 0 {
		sliceFrac := float64(s.sliceAccesses[idx]) / float64(s.windowCycles)
		util := 0.06 * float64(activeCores) * sliceFrac * float64(len(s.Slices)) / float64(s.portWidth)
		if util > 0.8 {
			util = 0.8
		}
		queue := util / (1 - util) * float64(s.baseLat) / 8
		q := int(queue)
		lat += q
		s.Stats.QueueDelay += uint64(q)
	}
	s.Stats.TotalLat += uint64(lat)
	return hit, lat
}

// Insert fills addr into its slice without counting an access or latency,
// used for prewarming.
func (s *SharedLLC) Insert(addr uint64) {
	s.Slices[s.SliceFor(addr)].Insert(s.sliceLocal(addr))
}

// InsertRanges prewarm-fills a batch of ranges, equivalent to calling
// Insert on every line of each range in order. Hashed placement scatters
// lines, so it takes that per-line loop. Under interleaved placement,
// consecutive global lines round-robin the slices and compact to
// consecutive slice-local lines, so each range decomposes into one
// contiguous slice-local range per slice, and each slice takes its whole
// batch in one mem.Cache.InsertRanges call; per-slice order equals batch
// order and slices share no state, so the decomposition is exact.
func (s *SharedLLC) InsertRanges(ranges [][2]uint64) {
	lineSize := uint64(1) << s.lineBits
	if s.hashed {
		for _, r := range ranges {
			for a := r[0]; a < r[1]; a += lineSize {
				s.Insert(a)
			}
		}
		return
	}
	slices := uint64(len(s.Slices))
	local := make([][2]uint64, 0, len(ranges))
	for idx := range s.Slices {
		local = local[:0]
		for _, r := range ranges {
			if r[1] <= r[0] {
				continue
			}
			firstLine := r[0] >> s.lineBits
			n := (r[1] - r[0] + lineSize - 1) >> s.lineBits
			// Lines for this slice: firstLine+k, +slices, ... — their
			// slice-local line ids are consecutive.
			k := (uint64(idx) - firstLine) & s.sliceMask
			if k >= n {
				continue
			}
			count := (n - k + slices - 1) / slices
			localStart := ((firstLine + k) >> s.sliceBits) << s.lineBits
			local = append(local, [2]uint64{localStart, localStart + count*lineSize})
		}
		s.Slices[idx].InsertRanges(local)
	}
}

// ResetWindow starts a new measurement window: pressure accounting and
// stats reset, contents preserved (mirrors §III-A's warmup discarding).
func (s *SharedLLC) ResetWindow() {
	s.Stats = Stats{}
	for i := range s.sliceAccesses {
		s.sliceAccesses[i] = 0
	}
	s.windowCycles = 0
	for _, sl := range s.Slices {
		sl.ResetStats()
	}
}

// Reset returns the shared LLC to the state New gives it: every slice
// empty (in O(1), see mem.Cache.Reset), pressure accounting and stats
// zeroed, interleaved placement.
func (s *SharedLLC) Reset() {
	for _, sl := range s.Slices {
		sl.Reset()
	}
	clear(s.sliceAccesses)
	s.windowCycles = 0
	s.Stats = Stats{}
	s.hashed = false
}
