package mem

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/rng"
)

// FuzzResetPrewarm checks Reset and the recorded prewarm against a new
// cache driven line by line. The cache under test gets a random geometry
// and pre-state, is Reset, and is handed a random batch of ranges that
// overlap, wrap the set space and exceed its capacity; the reference is a
// new cache that Inserts the same lines one at a time. A random
// Access/Insert/Probe stream then runs on both: every hit or miss must
// agree, and so must the final logical state.
func FuzzResetPrewarm(f *testing.F) {
	f.Fuzz(func(t *testing.T, setsLog, ways, policy uint8, seed uint64, nRanges uint8, nOps uint16) {
		g := machine.CacheGeom{LineBytes: 64, Ways: 1 + int(ways)%(maxBulkWays+2)}
		g.SizeBytes = 1 << (setsLog % 7) * g.Ways * g.LineBytes
		pol := LRU
		if policy%2 == 1 {
			pol = Random
		}
		r := rng.New(seed)
		span := uint64(4 * g.SizeBytes)
		line := uint64(g.LineBytes)

		c := NewCache("reset", g, pol)
		for i, n := 0, r.Intn(300); i < n; i++ {
			a := r.Uint64() % span
			switch r.Intn(4) {
			case 0:
				c.Access(a)
			case 1:
				c.Insert(a)
			case 2:
				c.Probe(a)
			default:
				c.InsertRanges([][2]uint64{{a, a + r.Uint64()%span}})
			}
			if r.Intn(40) == 0 {
				c.Reset()
			}
		}
		if r.Intn(8) == 0 {
			c.live = maxLive // the next Reset wraps the generation counter
		}
		c.Reset()

		ref := NewCache("ref", g, pol)
		batch := make([][2]uint64, 0, 8)
		for i := 0; i <= int(nRanges%8); i++ {
			rg := [2]uint64{r.Uint64() % span, 0}
			if nRanges&8 == 0 { // else a batch of empty ranges records nothing
				rg[1] = rg[0] + r.Uint64()%(3*uint64(g.SizeBytes))
			}
			if i > 0 && r.Intn(3) == 0 {
				rg = batch[r.Intn(i)] // exact re-warm
			}
			batch = append(batch, rg)
		}
		c.InsertRanges(batch)
		for _, rg := range batch {
			for a := rg[0]; a < rg[1]; a += line {
				ref.Insert(a)
			}
		}

		for i := 0; i < int(nOps%4096); i++ {
			a := r.Uint64() % span
			switch r.Intn(3) {
			case 0:
				if got, want := c.Access(a), ref.Access(a); got != want {
					t.Fatalf("op %d: Access(%#x) = %v, reference %v", i, a, got, want)
				}
			case 1:
				c.Insert(a)
				ref.Insert(a)
			default:
				if got, want := c.Probe(a), ref.Probe(a); got != want {
					t.Fatalf("op %d: Probe(%#x) = %v, reference %v", i, a, got, want)
				}
			}
		}
		if diff := sameState(ref, c); diff != "" {
			t.Fatalf("final state: %s", diff)
		}
	})
}

// TestMattsonInclusion checks LRU's stack property: with equal set counts,
// a cache with more ways holds a superset of the smaller one's lines, so
// it never misses more on an Access stream. It must also hold from a
// Reset, whatever the two caches held before, through a prewarm batch of
// non-overlapping ranges recorded on both.
func TestMattsonInclusion(t *testing.T) {
	r := rng.New(0x5eed)
	for trial := 0; trial < 300; trial++ {
		sets := 1 << r.Intn(6)
		ws := 1 + r.Intn(8)
		wl := ws + 1 + r.Intn(8)
		small := NewCache("small", machine.CacheGeom{SizeBytes: sets * ws * 64, LineBytes: 64, Ways: ws}, LRU)
		large := NewCache("large", machine.CacheGeom{SizeBytes: sets * wl * 64, LineBytes: 64, Ways: wl}, LRU)
		span := uint64(sets * wl * 64 * 3)
		reset := trial%2 == 1
		if reset {
			// Unrelated histories: only Reset makes the caches comparable.
			for i := 0; i < 200; i++ {
				small.Access(r.Uint64() % span)
				large.Access(r.Uint64() % span)
			}
			small.Reset()
			large.Reset()
			// Line-aligned, disjoint ranges: no line is inserted twice.
			var batch [][2]uint64
			next := r.Uint64() % span &^ 63
			for i := r.Intn(5); i >= 0; i-- {
				start := next + uint64(r.Intn(4))*64
				end := start + uint64(r.Intn(2*sets*wl))*64
				batch = append(batch, [2]uint64{start, end})
				next = end
			}
			small.InsertRanges(batch)
			large.InsertRanges(batch)
		}
		for i := 0; i < 2000; i++ {
			a := r.Uint64() % span
			if hs, hl := small.Access(a), large.Access(a); hs && !hl {
				t.Fatalf("trial %d (sets %d, ways %d<%d, reset %v) op %d: %#x hit the small cache only",
					trial, sets, ws, wl, reset, i, a)
			}
		}
		if small.Stats.Misses < large.Stats.Misses {
			t.Fatalf("trial %d: %d ways missed %d times, %d ways %d times",
				trial, ws, small.Stats.Misses, wl, large.Stats.Misses)
		}
	}
}
