package mem

import (
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/rng"
)

// cloneCache deep-copies a cache so the same pre-state can be driven through
// two code paths.
func cloneCache(c *Cache) *Cache {
	d := *c
	d.tags = append([]uint64(nil), c.tags...)
	d.ts = append([]uint64(nil), c.ts...)
	d.stamp = append([]uint32(nil), c.stamp...)
	d.batch = append([]insertJob(nil), c.batch...)
	return &d
}

// materializeAll brings every stale set into the current generation, so
// the arrays hold the cache's logical state.
func materializeAll(c *Cache) {
	for s := range c.stamp {
		if c.stamp[s] < c.live {
			c.materialize(uint64(s))
		}
	}
}

// sameState reports the first difference between two caches' logical
// state — clock, stats, and every set's ways, timestamps and MRU way once
// materialized — or "" if identical.
func sameState(a, b *Cache) string {
	materializeAll(a)
	materializeAll(b)
	if a.clock != b.clock {
		return fmt.Sprintf("clock %d != %d", a.clock, b.clock)
	}
	if a.Stats != b.Stats {
		return fmt.Sprintf("stats %+v != %+v", a.Stats, b.Stats)
	}
	for i := range a.tags {
		if a.tags[i] != b.tags[i] {
			return fmt.Sprintf("tags[%d] %#x != %#x", i, a.tags[i], b.tags[i])
		}
		if a.ts[i] != b.ts[i] {
			return fmt.Sprintf("ts[%d] %d != %d", i, a.ts[i], b.ts[i])
		}
	}
	for s := range a.stamp {
		if wa, wb := a.stamp[s]&stampWayMask, b.stamp[s]&stampWayMask; wa != wb {
			return fmt.Sprintf("mru[%d] %d != %d", s, wa, wb)
		}
	}
	return ""
}

// TestInsertRangeMatchesInsertLoop drives randomized pre-states and ranges
// through InsertRange and through the per-line Insert loop it replaces, and
// requires bit-identical state, stats and clock: the prewarm bulk path must
// be a pure optimization.
func TestInsertRangeMatchesInsertLoop(t *testing.T) {
	geoms := []machine.CacheGeom{
		{SizeBytes: 1024, LineBytes: 64, Ways: 2},       // 8 sets
		{SizeBytes: 32 * 1024, LineBytes: 64, Ways: 8},  // L1-like
		{SizeBytes: 256 * 1024, LineBytes: 64, Ways: 4}, // L2-like
	}
	r := rng.New(0xbeef)
	for gi, g := range geoms {
		for trial := 0; trial < 200; trial++ {
			ref := NewCache("ref", g, LRU)
			// Random pre-state: a mix of accesses and inserts over a region
			// that partially overlaps the ranges inserted below. Every third
			// trial keeps the cache untouched to drive the recorded batch.
			nOps := r.Intn(200)
			if trial%3 == 0 {
				nOps = 0
			}
			for i := 0; i < nOps; i++ {
				addr := uint64(r.Intn(4*g.SizeBytes)) &^ 3
				if r.Intn(2) == 0 {
					ref.Access(addr)
				} else {
					ref.Insert(addr)
				}
			}
			opt := cloneCache(ref)
			// Random range, deliberately unaligned sometimes, from tiny
			// (per-line fallback) to several times the cache size (set wrap).
			start := uint64(r.Intn(2 * g.SizeBytes))
			size := uint64(r.Intn(3 * g.SizeBytes))
			end := start + size
			for a := start; a < end; a += uint64(g.LineBytes) {
				ref.Insert(a)
			}
			opt.InsertRange(start, end)
			if diff := sameState(ref, opt); diff != "" {
				t.Fatalf("geom %d trial %d range [%#x,%#x): %s", gi, trial, start, end, diff)
			}
			// Back-to-back ranges must also agree (clock continuation).
			start2 := end - size/2
			end2 := start2 + uint64(r.Intn(g.SizeBytes))
			for a := start2; a < end2; a += uint64(g.LineBytes) {
				ref.Insert(a)
			}
			opt.InsertRange(start2, end2)
			if diff := sameState(ref, opt); diff != "" {
				t.Fatalf("geom %d trial %d second range: %s", gi, trial, diff)
			}
		}
	}
}

// TestInsertRangesMatchesInsertLoop drives randomized batches — including
// duplicate and overlapping ranges, as the prewarm nursery re-warms produce
// — through the set-major batch path and through per-line Insert loops, and
// requires bit-identical state, stats and clock.
func TestInsertRangesMatchesInsertLoop(t *testing.T) {
	geoms := []machine.CacheGeom{
		{SizeBytes: 1024, LineBytes: 64, Ways: 2},
		{SizeBytes: 32 * 1024, LineBytes: 64, Ways: 8},
		{SizeBytes: 64 * 1024, LineBytes: 64, Ways: 16},
	}
	r := rng.New(0xfeed)
	for gi, g := range geoms {
		for trial := 0; trial < 150; trial++ {
			ref := NewCache("ref", g, LRU)
			// Untouched every third trial: batches (overlaps included) must
			// also be exact when recorded and replayed per set.
			nOps := r.Intn(150)
			if trial%3 == 0 {
				nOps = 0
			}
			for i := 0; i < nOps; i++ {
				addr := uint64(r.Intn(4*g.SizeBytes)) &^ 3
				if r.Intn(2) == 0 {
					ref.Access(addr)
				} else {
					ref.Insert(addr)
				}
			}
			opt := cloneCache(ref)
			nr := 1 + r.Intn(6)
			batch := make([][2]uint64, 0, nr+1)
			for i := 0; i < nr; i++ {
				start := uint64(r.Intn(2 * g.SizeBytes))
				end := start + uint64(r.Intn(2*g.SizeBytes))
				batch = append(batch, [2]uint64{start, end})
				if i > 0 && r.Intn(3) == 0 {
					batch = append(batch, batch[r.Intn(i)]) // exact re-warm
				}
			}
			for _, rg := range batch {
				for a := rg[0]; a < rg[1]; a += uint64(g.LineBytes) {
					ref.Insert(a)
				}
			}
			opt.InsertRanges(batch)
			if diff := sameState(ref, opt); diff != "" {
				t.Fatalf("geom %d trial %d batch %v: %s", gi, trial, batch, diff)
			}
		}
	}
}

// TestInsertRangeRandomPolicyFallsBack checks the Random-policy path still
// installs the range (via the per-line fallback; the bulk path assumes LRU).
func TestInsertRangeRandomPolicyFallsBack(t *testing.T) {
	g := machine.CacheGeom{SizeBytes: 4096, LineBytes: 64, Ways: 4}
	a := NewCache("a", g, Random)
	b := NewCache("b", g, Random)
	for addr := uint64(0); addr < 4096; addr += 64 {
		a.Insert(addr)
	}
	b.InsertRange(0, 4096)
	for addr := uint64(0); addr < 4096; addr += 64 {
		if a.Probe(addr) != b.Probe(addr) {
			t.Fatalf("random-policy divergence at %#x", addr)
		}
	}
}

// TestInsertRangeEmpty checks degenerate ranges are no-ops.
func TestInsertRangeEmpty(t *testing.T) {
	c := NewCache("t", smallGeom(), LRU)
	c.InsertRange(0x1000, 0x1000)
	c.InsertRange(0x2000, 0x1000)
	if c.clock != 0 || c.Stats != (CacheStats{}) {
		t.Fatalf("empty range mutated state: clock=%d stats=%+v", c.clock, c.Stats)
	}
}
