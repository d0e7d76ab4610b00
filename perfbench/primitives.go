package main

import (
	"time"

	"repro/internal/branch"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/rng"
)

// sink keeps the primitive loops' results live.
var sink int

// primitives times the simulator's hot primitives on seeded streams shaped
// like the i9 model's traffic, as the median ns per call over several
// repetitions: mem.Cache.Access on an L1D, mem.TLB.Lookup on a DTLB with
// its STLB, branch.Predictor.Predict, and mem.Cache.InsertRange filling
// fresh L2s (ns per line).
func primitives(seed uint64, tiny bool) map[string]float64 {
	const n = 1 << 16
	reps, passes := 7, 16
	if tiny {
		reps, passes = 1, 1
	}
	m := machine.CoreI9()
	r := rng.NewFrom(seed, 0x9e3779b9)

	addrs := make([]uint64, n)
	pages := make([]uint64, n)
	for i := range addrs {
		if r.Bool(0.8) {
			addrs[i] = r.Uint64() % (24 << 10) // hot set inside the L1D
		} else {
			addrs[i] = 64<<20 + r.Uint64()%(8<<20)
		}
		if r.Bool(0.9) {
			pages[i] = r.Uint64() % (256 << 10)
		} else {
			pages[i] = r.Uint64() % (1 << 30)
		}
	}
	const sites = 4096
	bias := make([]float64, sites)
	for i := range bias {
		bias[i] = r.Float64()
	}
	pcs := make([]uint64, n)
	taken := make([]bool, n)
	for i := range pcs {
		s := r.Intn(sites)
		pcs[i] = 0x400000 + uint64(s)*20
		taken[i] = r.Bool(bias[s])
	}

	out := map[string]float64{}
	cache := mem.NewCache("L1D", m.L1D, mem.LRU)
	out["mem.cache_access_ns"] = nsPerCall(reps, passes*n, func() {
		for p := 0; p < passes; p++ {
			for _, a := range addrs {
				if cache.Access(a) {
					sink++
				}
			}
		}
	})
	tlb := mem.NewTLB("DTLB", m.DTLB, mem.NewTLB("STLB", m.STLB, nil))
	out["mem.tlb_lookup_ns"] = nsPerCall(reps, passes*n, func() {
		for p := 0; p < passes; p++ {
			for _, a := range pages {
				if tlb.Lookup(a) {
					sink++
				}
			}
		}
	})
	bp := branch.New(13, m.BTBEntries, 4)
	out["branch.predict_ns"] = nsPerCall(reps, passes*n, func() {
		for p := 0; p < passes; p++ {
			for i, pc := range pcs {
				if ok, _ := bp.Predict(pc, taken[i]); ok {
					sink++
				}
			}
		}
	})

	// Fresh caches, as the per-workload prewarm fills them: allocation
	// happens before the timed fill.
	fills := 4 * passes
	span := 4 * uint64(m.L2.SizeBytes)
	lines := fills * int(span/uint64(m.L2.LineBytes))
	var samples []time.Duration
	for i := 0; i < reps; i++ {
		caches := make([]*mem.Cache, fills)
		for j := range caches {
			caches[j] = mem.NewCache("L2", m.L2, mem.LRU)
		}
		start := (r.Uint64() % (1 << 30)) &^ 63
		t0 := time.Now()
		for _, c := range caches {
			c.InsertRange(start, start+span)
		}
		samples = append(samples, time.Since(t0))
	}
	out["mem.insert_range_ns_per_line"] = float64(median(samples)) / float64(lines)
	return out
}

// nsPerCall times f reps times and returns the median ns per call, f
// making calls calls each time.
func nsPerCall(reps, calls int, f func()) float64 {
	samples := make([]time.Duration, reps)
	for i := range samples {
		t0 := time.Now()
		f()
		samples[i] = time.Since(t0)
	}
	return float64(median(samples)) / float64(calls)
}
