package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/rng"
)

func smallGeom() machine.CacheGeom {
	return machine.CacheGeom{SizeBytes: 1024, LineBytes: 64, Ways: 2} // 8 sets
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache("t", smallGeom(), LRU)
	if c.Access(0x1000) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access should hit")
	}
	if !c.Access(0x1000 + 63) {
		t.Fatal("same-line access should hit")
	}
	if c.Access(0x1000 + 64) {
		t.Fatal("next line should miss")
	}
	if c.Stats.Accesses != 4 || c.Stats.Misses != 2 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache("t", smallGeom(), LRU) // 8 sets, 2 ways
	// Three lines mapping to the same set (stride = sets*line = 512).
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a) // miss
	c.Access(b) // miss
	c.Access(a) // hit; b is now LRU
	c.Access(d) // miss; evicts b
	if c.Access(b) {
		t.Fatal("b should have been evicted (LRU)")
	}
	if !c.Access(a) {
		// a was LRU after d's fill? order: a(hit,ts3) d(fill ts4) b(fill ts5, evicts a)
		t.Log("a evicted by b's refill — acceptable LRU sequence")
	}
}

func TestCacheWorkingSetFitsNoMisses(t *testing.T) {
	// A working set smaller than the cache must produce no misses after
	// the first pass.
	c := NewCache("t", machine.CacheGeom{SizeBytes: 32 * 1024, LineBytes: 64, Ways: 8}, LRU)
	for pass := 0; pass < 3; pass++ {
		for addr := uint64(0); addr < 16*1024; addr += 64 {
			c.Access(addr)
		}
	}
	wantMisses := uint64(16 * 1024 / 64)
	if c.Stats.Misses != wantMisses {
		t.Fatalf("misses = %d, want only the %d cold misses", c.Stats.Misses, wantMisses)
	}
}

func TestCacheThrashingMissesEveryTime(t *testing.T) {
	// A working set 4x the cache streamed cyclically with LRU misses on
	// every access after warmup.
	c := NewCache("t", smallGeom(), LRU) // 1KiB
	c.ResetStats()
	for pass := 0; pass < 4; pass++ {
		for addr := uint64(0); addr < 4*1024; addr += 64 {
			c.Access(addr)
		}
	}
	if c.Stats.MissRate() < 0.99 {
		t.Fatalf("cyclic thrash miss rate %v, want ~1", c.Stats.MissRate())
	}
}

func TestProbeDoesNotMutate(t *testing.T) {
	c := NewCache("t", smallGeom(), LRU)
	if c.Probe(0x40) {
		t.Fatal("probe of empty cache should be false")
	}
	if c.Stats.Accesses != 0 {
		t.Fatal("probe must not count accesses")
	}
	c.Access(0x40)
	if !c.Probe(0x40) {
		t.Fatal("probe should see filled line")
	}
}

func TestInsertPrefetch(t *testing.T) {
	c := NewCache("t", smallGeom(), LRU)
	c.Insert(0x80)
	if c.Stats.Accesses != 0 || c.Stats.Misses != 0 {
		t.Fatal("Insert must not count accesses/misses")
	}
	if !c.Access(0x80) {
		t.Fatal("inserted line should hit")
	}
}

func TestReset(t *testing.T) {
	c := NewCache("t", smallGeom(), LRU)
	c.InsertRange(0x1000, 0x2000) // recorded: the cache is new
	c.Access(0x100)
	c.InsertRange(0x3000, 0x4000) // line by line: the cache is touched
	c.ResetStats()
	if c.Stats != (CacheStats{}) || !c.Probe(0x3fc0) {
		t.Fatalf("ResetStats: stats %+v, contents kept %v", c.Stats, c.Probe(0x3fc0))
	}
	c.Reset()
	if c.clock != 0 || c.Stats != (CacheStats{}) {
		t.Fatalf("reset left clock=%d stats=%+v", c.clock, c.Stats)
	}
	if c.Probe(0x100) || c.Probe(0x1000) || c.Probe(0x3fc0) {
		t.Fatal("line survived reset")
	}
	if c.Access(0x100) {
		t.Fatal("reset line should miss")
	}
	// Exhausting the generation counter clears the stamps instead.
	c.live = maxLive
	c.Reset()
	if c.live != 1<<stampGenShift || c.Access(0x100) {
		t.Fatalf("wrapped reset: live=%#x, line survived", c.live)
	}
}

func TestRandomPolicyStillCaches(t *testing.T) {
	c := NewCache("t", smallGeom(), Random)
	c.Access(0x40)
	if !c.Access(0x40) {
		t.Fatal("random policy must still hit on resident lines")
	}
}

func TestMissRateBoundsProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		c := NewCache("t", smallGeom(), LRU)
		for i := 0; i < 500; i++ {
			c.Access(uint64(r.Intn(1 << 14)))
		}
		mr := c.Stats.MissRate()
		return mr >= 0 && mr <= 1 && c.Stats.Accesses == 500
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNewCachePanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCache("bad", machine.CacheGeom{SizeBytes: 100, LineBytes: 7, Ways: 3}, LRU)
}
