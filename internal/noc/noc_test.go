package noc

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/rng"
)

func TestSliceInterleaving(t *testing.T) {
	s := New(machine.CoreI9(), mem.LRU)
	// Consecutive lines map to consecutive slices.
	if s.SliceFor(0) == s.SliceFor(64) {
		t.Fatal("adjacent lines should interleave across slices")
	}
	// Same line, same slice.
	if s.SliceFor(0) != s.SliceFor(63) {
		t.Fatal("same-line bytes must map to the same slice")
	}
}

func TestHitAfterFill(t *testing.T) {
	s := New(machine.CoreI9(), mem.LRU)
	hit, _ := s.Access(0, 0x4000, 1)
	if hit {
		t.Fatal("cold access should miss")
	}
	hit, _ = s.Access(0, 0x4000, 1)
	if !hit {
		t.Fatal("second access should hit")
	}
	if s.Stats.Accesses != 2 || s.Stats.Misses != 1 {
		t.Fatalf("stats %+v", s.Stats)
	}
}

func TestSharedAcrossCores(t *testing.T) {
	s := New(machine.CoreI9(), mem.LRU)
	s.Access(0, 0x8000, 2)
	hit, _ := s.Access(1, 0x8000, 2)
	if !hit {
		t.Fatal("LLC is shared: core 1 should hit a line core 0 filled")
	}
}

func TestLatencyGrowsWithCoreCount(t *testing.T) {
	// The §VI-B2 mechanism: same per-core traffic, more cores -> higher
	// average LLC latency from slice-port and NoC contention.
	avgLat := func(cores int) float64 {
		s := New(machine.CoreI9(), mem.LRU)
		r := rng.New(7)
		// Hot shared region so that most accesses hit: isolates latency
		// effects from miss-rate effects.
		for i := 0; i < 20000; i++ {
			addr := uint64(r.Intn(1<<14)) &^ 63
			s.Access(i%cores, addr, cores)
		}
		return s.Stats.AvgLatency()
	}
	l1, l4, l16 := avgLat(1), avgLat(4), avgLat(16)
	if !(l1 < l4 && l4 < l16) {
		t.Fatalf("LLC latency should grow with core count: 1->%v 4->%v 16->%v", l1, l4, l16)
	}
}

func TestMissRateStableAcrossCoreCount(t *testing.T) {
	// Per-core working sets are disjoint and sized per core, so the
	// aggregate miss ratio stays roughly stable while latency grows.
	missRate := func(cores int) float64 {
		s := New(machine.CoreI9(), mem.LRU)
		r := rng.New(11)
		// Fixed per-core access count so every core's 64 KiB working set
		// gets the same warmup regardless of core count.
		for i := 0; i < 20000*cores; i++ {
			core := i % cores
			// Contiguous 64 KiB region per core: distinct sets, so the
			// only misses are cold ones and the rate is core-count
			// independent (as the paper observed for per-core LLC MPKI).
			addr := uint64(core)<<16 | uint64(r.Intn(1<<16))&^63
			s.Access(core, addr, cores)
		}
		return s.Stats.MissRate()
	}
	m1, m16 := missRate(1), missRate(16)
	ratio := m16 / m1
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("per-core miss rate should stay roughly stable: 1-core %v vs 16-core %v", m1, m16)
	}
}

func TestQueueDelayAccounted(t *testing.T) {
	s := New(machine.CoreI9(), mem.LRU)
	r := rng.New(3)
	for i := 0; i < 10000; i++ {
		s.Access(i%16, uint64(r.Intn(1<<12))&^63, 16)
	}
	if s.Stats.QueueDelay == 0 {
		t.Fatal("16-core pressure should produce queueing delay")
	}
	if s.Stats.TotalLat < s.Stats.QueueDelay {
		t.Fatal("total latency must include queue delay")
	}
}

func TestResetWindow(t *testing.T) {
	s := New(machine.CoreI9(), mem.LRU)
	s.Access(0, 0x40, 1)
	s.ResetWindow()
	if s.Stats.Accesses != 0 {
		t.Fatal("window reset should clear stats")
	}
	// Contents preserved.
	hit, _ := s.Access(0, 0x40, 1)
	if !hit {
		t.Fatal("window reset must not flush contents")
	}
}

// TestReset checks that Reset gives back the shared LLC New builds: empty
// slices, zeroed pressure accounting and stats, interleaved placement.
func TestReset(t *testing.T) {
	s := New(machine.CoreI9(), mem.LRU)
	fresh := New(machine.CoreI9(), mem.LRU)
	s.UseHashedPlacement(true)
	s.InsertRanges([][2]uint64{{0, 1 << 20}})
	for a := uint64(0); a < 1<<16; a += 64 {
		s.Access(1, a, 4)
	}
	s.Reset()
	if s.Stats != (Stats{}) || s.windowCycles != 0 || s.hashed {
		t.Fatalf("reset left stats %+v, window %d, hashed %v", s.Stats, s.windowCycles, s.hashed)
	}
	r := rng.New(3)
	for i := 0; i < 20000; i++ {
		a := uint64(r.Intn(1<<22)) &^ 63
		h1, l1 := s.Access(0, a, 2)
		h2, l2 := fresh.Access(0, a, 2)
		if h1 != h2 || l1 != l2 {
			t.Fatalf("reset LLC diverged from a new one at %#x (op %d)", a, i)
		}
	}
}

func TestStatsZeroDivision(t *testing.T) {
	var st Stats
	if st.MissRate() != 0 || st.AvgLatency() != 0 {
		t.Fatal("idle stats should be 0")
	}
}

func TestBadSliceCountPanics(t *testing.T) {
	cfg := machine.CoreI9()
	cfg.LLCSlices = 3
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two slices")
		}
	}()
	New(cfg, mem.LRU)
}

// TestInsertRangeMatchesInsertLoop checks single-range prewarm calls — one
// InsertRanges call per range, so every call after the first finds its
// slices touched and inserts line by line — against the per-line Insert
// loop under both placement modes: identical per-slice contents (probed)
// and identical subsequent access behavior.
func TestInsertRangeMatchesInsertLoop(t *testing.T) {
	for _, hashed := range []bool{false, true} {
		ref := New(machine.CoreI9(), mem.LRU)
		opt := New(machine.CoreI9(), mem.LRU)
		ref.UseHashedPlacement(hashed)
		opt.UseHashedPlacement(hashed)
		// Overlapping unaligned ranges spanning many slice wraps, plus an
		// empty one.
		for _, rg := range [][2]uint64{{0x10020, 0x90020}, {0x4c040, 0x70040}, {0x100000, 0x100000}} {
			for a := rg[0]; a < rg[1]; a += 64 {
				ref.Insert(a)
			}
			opt.InsertRanges([][2]uint64{rg})
		}
		for a := uint64(0x10000); a < 0xa0000; a += 64 {
			if ref.Slices[ref.SliceFor(a)].Probe(ref.sliceLocal(a)) !=
				opt.Slices[opt.SliceFor(a)].Probe(opt.sliceLocal(a)) {
				t.Fatalf("hashed=%v: content divergence at %#x", hashed, a)
			}
		}
		// Drive an eviction-heavy access stream and require identical
		// hit/miss decisions, proving LRU state (not just presence) matches.
		r := rng.New(7)
		for i := 0; i < 50000; i++ {
			a := uint64(r.Intn(0x200000)) &^ 63
			h1, _ := ref.Access(0, a, 1)
			h2, _ := opt.Access(0, a, 1)
			if h1 != h2 {
				t.Fatalf("hashed=%v: access divergence at %#x (op %d)", hashed, a, i)
			}
		}
	}
}

// TestInsertRangesMatchesInsertLoop checks the batched prewarm entry point,
// with the whole batch handed over in one call (recorded on the new slices),
// against per-line Insert loops under both placement modes. The batch holds
// unaligned ranges, an overlap and a duplicate, as nursery re-warms produce,
// and an empty range. Per-slice contents must probe the same, and an
// eviction-heavy access stream must make the same hit/miss decisions.
func TestInsertRangesMatchesInsertLoop(t *testing.T) {
	batch := [][2]uint64{
		{0x10020, 0x90020},
		{0x200000, 0x280000},
		{0x4c040, 0x70040}, // overlaps the first
		{0x10020, 0x90020}, // exact re-warm
		{0x300000, 0x300000},
	}
	for _, hashed := range []bool{false, true} {
		ref := New(machine.CoreI9(), mem.LRU)
		opt := New(machine.CoreI9(), mem.LRU)
		ref.UseHashedPlacement(hashed)
		opt.UseHashedPlacement(hashed)
		for _, rg := range batch {
			for a := rg[0]; a < rg[1]; a += 64 {
				ref.Insert(a)
			}
		}
		opt.InsertRanges(batch)
		for a := uint64(0x10000); a < 0x300000; a += 64 {
			if ref.Slices[ref.SliceFor(a)].Probe(ref.sliceLocal(a)) !=
				opt.Slices[opt.SliceFor(a)].Probe(opt.sliceLocal(a)) {
				t.Fatalf("hashed=%v: content divergence at %#x", hashed, a)
			}
		}
		r := rng.New(13)
		for i := 0; i < 50000; i++ {
			a := uint64(r.Intn(0x300000)) &^ 63
			h1, _ := ref.Access(0, a, 1)
			h2, _ := opt.Access(0, a, 1)
			if h1 != h2 {
				t.Fatalf("hashed=%v: access divergence at %#x (op %d)", hashed, a, i)
			}
		}
	}
}
