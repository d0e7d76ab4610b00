package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/machine"
	"repro/internal/workload"
)

// goldenRuns is a fixed set of runs covering native and managed code, the
// 16-core shared LLC, the Arm machine's TLB flush on JIT compiles,
// sampling, each HWAssist flag and the Random replacement policy.
func goldenRuns(t *testing.T) []reuseStep {
	t.Helper()
	runtimeP := mustByName(t, workload.DotNetCategories(), "System.Runtime")
	aspnet := mustByName(t, workload.AspNetWorkloads(), "Json")
	mcf := mustByName(t, workload.SpecWorkloads(), "mcf")
	collections := mustByName(t, workload.DotNetCategories(), "System.Collections")
	i9, arm := machine.CoreI9(), machine.Arm()
	const n = 6000
	// A cold process compiles and relocates methods during measurement,
	// which the JIT assists need; a small heap under heavy time
	// compression collects, which GC offload needs.
	cold := Options{Instructions: n, Cores: 2, PrecompiledFrac: -1, DisableWarmup: true, TierUpCalls: 2}
	gc := Options{Instructions: n, MaxHeapBytes: 200 << 20, AllocScale: 3000}
	with := func(o Options, a HWAssist) Options { o.Assist = a; return o }
	return []reuseStep{
		{"native", mcf, i9, Options{Instructions: n}},
		{"managed", runtimeP, i9, Options{Instructions: n}},
		{"aspnet-16", aspnet, i9, Options{Instructions: n}},
		{"arm-managed", runtimeP, arm, cold},
		{"sampled", aspnet, i9, Options{Instructions: n, Cores: 2, SampleInterval: 1500}},
		{"cold", aspnet, i9, cold},
		{"jit-code-prefetch", aspnet, i9, with(cold, HWAssist{JITCodePrefetch: true})},
		{"predictor-transform", aspnet, i9, with(cold, HWAssist{PredictorTransform: true})},
		{"gc", collections, i9, gc},
		{"gc-offload", collections, i9, with(gc, HWAssist{GCOffload: true})},
		{"aspnet-4", aspnet, i9, Options{Instructions: n, Cores: 4}},
		{"hashed-slices", aspnet, i9, Options{Instructions: n, Cores: 4, Assist: HWAssist{HashedSlicePlacement: true}}},
		{"huge-page-code", runtimeP, arm, with(cold, HWAssist{HugePageCode: true})},
		{"random-policy", runtimeP, i9, Options{Instructions: n, Policy: 1}},
	}
}

// goldenAssists pairs each assist run with the run it differs from only
// by that flag: equal digests would mean the flag's path went untested.
var goldenAssists = [][2]string{
	{"jit-code-prefetch", "cold"},
	{"predictor-transform", "cold"},
	{"gc-offload", "gc"},
	{"hashed-slices", "aspnet-4"},
	{"huge-page-code", "arm-managed"},
}

// goldenHashes are the SHA-256 digests of each golden run's JSON-encoded
// Counters and Samples. A change meant to alter simulated output must
// re-record them and say why; any other change must leave them matching.
var goldenHashes = map[string]string{
	"native":              "e5ffc97fc7e3b0498d1be233817afe310d9f0e96a0f76a3831afec712e0929c8",
	"managed":             "a904006744babeb3ca19fed6ed7a0093f9ede2ca29b4836ccf21d51236383f88",
	"aspnet-16":           "33cafc611302c7138497348548b0fe294f8c5e79e5f152cb0de63cdc63f71c2a",
	"arm-managed":         "916898a02a4d6e45ef0e01241cf2834b49a9d4f779fb210c91845a03a62f399c",
	"sampled":             "cf12abbc67db3c5638ca8f114809230796145fe77b83a77ee157153a28947837",
	"cold":                "166bf9c9a27fe3522b342cd0c38806d9f58fd7b934624da6cded35fef2973374",
	"jit-code-prefetch":   "4d062fb81f3e18bffaff54dea72dc77f4e4b5914b07a1f1c7fb78dbca8db0121",
	"predictor-transform": "d9c2aa5a2f06845bf6fcd8857f079aa3997d120c9b2722f9efe8a3e96302db92",
	"gc":                  "a3bd5cb6f58d360c8121a06a58859d5178f8610bdf99ce989e2a5513e921aeb8",
	"gc-offload":          "74871ce80e157b7fd14b61865092872cca38935603485c1cff0162226374993b",
	"aspnet-4":            "8af237224cff31ed7530ccafbc3b7b07036f3ef41e3828c1d14d44a314a7a8c8",
	"hashed-slices":       "6f878040e68b27f416f7eb5e5c3df01c96fc584b5fb16cbfeeb597150debf72f",
	"huge-page-code":      "467d08a8dd9d79c9f0ab65eff6f5795570bd3285e21ad3fe2db26b255ebaed2c",
	"random-policy":       "9e5cb31e1c49d39b3ad0a1e26e1d69519a20c4e7dcb82d0e3b1523b475a7fa5d",
}

// TestGoldenCounters pins the simulator's output bit for bit.
func TestGoldenCounters(t *testing.T) {
	var r Runner
	got := map[string]string{}
	for _, s := range goldenRuns(t) {
		res, err := r.Run(s.p, s.m, s.opts)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if s.opts.SampleInterval > 0 && len(res.Samples) == 0 {
			t.Fatalf("%s: no samples collected", s.name)
		}
		if s.m.StackFriction > 2 && res.Counters.JITStarts == 0 {
			t.Fatalf("%s: no JIT compiles, so no TLB flush", s.name)
		}
		b, err := json.Marshal(struct {
			Counters Counters
			Samples  []Sample
		}{res.Counters, res.Samples})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		sum := sha256.Sum256(b)
		got[s.name] = hex.EncodeToString(sum[:])
		if want := goldenHashes[s.name]; got[s.name] != want {
			t.Errorf("%s: counters digest %s, want %s", s.name, got[s.name], want)
		}
	}
	for _, a := range goldenAssists {
		if got[a[0]] == got[a[1]] {
			t.Errorf("%s: same counters as %s", a[0], a[1])
		}
	}
}
