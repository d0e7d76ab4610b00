package sim

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/clr"
	"repro/internal/machine"
	"repro/internal/workload"
)

// reuseStep is one run of a Runner sequence.
type reuseStep struct {
	name string
	p    workload.Profile
	m    *machine.Config
	opts Options
}

// reuseSequence mixes every axis a reused Runner must reset across: the
// three Table II machines, private L3 and shared LLC with the core count
// growing and shrinking, native and managed code, both replacement
// policies, warmup on and off, sampling, every HWAssist flag, the
// no-compaction ablation and a heap set-up failure in the middle.
func reuseSequence(t *testing.T) []reuseStep {
	t.Helper()
	runtimeP := mustByName(t, "dotnet", "System.Runtime")
	json := mustByName(t, "aspnet", "Json")
	mcf := mustByName(t, "spec", "mcf")
	oom := mustByName(t, "dotnet", "System.Collections")
	oom.WorkingSetBytes = 190 << 20
	i9, xeon, arm := machine.CoreI9(), machine.XeonE5(), machine.Arm()
	const n = 3000
	return []reuseStep{
		{"managed", runtimeP, i9, Options{Instructions: n}},
		{"aspnet-4-hashed", json, i9, Options{Instructions: n, Cores: 4,
			Assist: HWAssist{HashedSlicePlacement: true}}},
		{"aspnet-1", json, i9, Options{Instructions: n, Cores: 1}},
		{"native-nowarmup", mcf, i9, Options{Instructions: n, DisableWarmup: true}},
		{"aspnet-8-sampled", json, i9, Options{Instructions: n, Cores: 8, SampleInterval: 1500}},
		{"managed-2-assists", runtimeP, i9, Options{Instructions: n, Cores: 2, Assist: HWAssist{
			JITCodePrefetch: true, PredictorTransform: true, GCOffload: true, HugePageCode: true}}},
		{"oom", oom, i9, Options{Instructions: n, MaxHeapBytes: 200 << 20}},
		{"managed-random", runtimeP, i9, Options{Instructions: n, Policy: 1}},
		{"managed-nocompaction", runtimeP, i9, Options{Instructions: n, DisableCompaction: true, AllocScale: 4000}},
		{"xeon-aspnet", json, xeon, Options{Instructions: n}},
		{"arm-managed", runtimeP, arm, Options{Instructions: n}},
		{"arm-native", mcf, arm, Options{Instructions: n}},
		{"i9-aspnet-1-sampled", json, i9, Options{Instructions: n, Cores: 1, SampleInterval: 700}},
		{"i9-managed-again", runtimeP, i9, Options{Instructions: n}},
	}
}

// TestRunnerMatchesFreshRun drives one Runner through the mixed sequence
// and requires every result (or error) to equal a fresh Run's. Results
// are compared again once the sequence is over, so a later run that wrote
// into an earlier result's Samples would fail too.
func TestRunnerMatchesFreshRun(t *testing.T) {
	var r Runner
	type pair struct {
		name      string
		got, want *Result
	}
	var kept []pair
	for _, s := range reuseSequence(t) {
		got, gerr := r.Run(s.p, s.m, s.opts)
		want, werr := Run(s.p, s.m, s.opts)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("%s: runner error %v, fresh error %v", s.name, gerr, werr)
		}
		if s.name == "oom" && !errors.Is(gerr, clr.ErrOutOfMemory) {
			t.Fatalf("oom step returned %v", gerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: runner result differs from a fresh run", s.name)
		}
		if s.opts.SampleInterval > 0 && len(got.Samples) == 0 {
			t.Fatalf("%s: no samples collected", s.name)
		}
		kept = append(kept, pair{s.name, got, want})
	}
	for _, k := range kept {
		if !reflect.DeepEqual(k.got, k.want) {
			t.Fatalf("%s: result changed after later runs", k.name)
		}
	}
}

// runBytesBudget caps the heap bytes one run of a dotnet-individual
// workload may allocate on a warmed Runner (CoreI9, the Quick budget of
// 6000 instructions). That run allocated 26,358 bytes in 11 mallocs on
// linux/amd64 with go1.24 (mostly the JIT's method table and the
// result; the Zipf tables are rebuilt in the Runner's storage); a fresh
// Run allocates about 6.9 MB.
const runBytesBudget = 64 << 10

// TestRunnerAllocationBudget guards the point of the Runner: once warmed,
// a run reuses the machine instead of allocating one.
func TestRunnerAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	ind, _ := workload.Builtin().Lookup("dotnet-individual")
	p, _ := ind.Lookup(ind.Name(0))
	m := machine.CoreI9()
	opts := Options{Instructions: 6000}
	var r Runner
	if _, err := r.Run(p, m, opts); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := r.Run(p, m, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > runBytesBudget {
		t.Fatalf("a warmed run allocates %d bytes, budget %d", per, runBytesBudget)
	}
}
