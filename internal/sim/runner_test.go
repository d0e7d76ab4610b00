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
// no-compaction ablation, the configurations the drivers measure
// (server GC at both ends of Fig 14's heap sweep, Fig 13's JIT study,
// the extensions' cold starts, heavy allocation compression) and both
// heap set-up failures in the middle.
func reuseSequence(t *testing.T) []reuseStep {
	t.Helper()
	runtimeP := mustByName(t, "dotnet", "System.Runtime")
	json := mustByName(t, "aspnet", "Json")
	mcf := mustByName(t, "spec", "mcf")
	collections := mustByName(t, "dotnet", "System.Collections")
	oom := collections
	oom.WorkingSetBytes = 190 << 20
	// Server GC's 16 MiB segments on 16 cores exceed a 200 MiB cap, and
	// the live set is above an eighth of it.
	reserve := collections
	reserve.WorkingSetBytes = 64 << 20
	i9, xeon, arm := machine.CoreI9(), machine.XeonE5(), machine.Arm()
	const n = 3000
	return []reuseStep{
		{"managed", runtimeP, i9, Options{Instructions: n}},
		{"server-200", runtimeP, i9, Options{Instructions: n, GCMode: clr.Server, MaxHeapBytes: 200 << 20, AllocScale: 4000}},
		{"aspnet-4-hashed", json, i9, Options{Instructions: n, Cores: 4,
			Assist: HWAssist{HashedSlicePlacement: true}}},
		{"jit-study", json, i9, Options{Instructions: n, Cores: 4, MaxHeapBytes: 20000 << 20, SampleInterval: 500,
			TierUpCalls: 50, PrecompiledFrac: 0.9}},
		{"aspnet-1", json, i9, Options{Instructions: n, Cores: 1}},
		{"native-nowarmup", mcf, i9, Options{Instructions: n, DisableWarmup: true}},
		{"cold-start", json, i9, Options{Instructions: n, Cores: 2, PrecompiledFrac: -1, DisableWarmup: true, TierUpCalls: 2}},
		{"aspnet-8-sampled", json, i9, Options{Instructions: n, Cores: 8, SampleInterval: 1500}},
		{"server-reserve", reserve, i9, Options{Instructions: n, GCMode: clr.Server, Cores: 16, MaxHeapBytes: 200 << 20}},
		{"managed-2-assists", runtimeP, i9, Options{Instructions: n, Cores: 2, Assist: HWAssist{
			JITCodePrefetch: true, PredictorTransform: true, GCOffload: true, HugePageCode: true}}},
		{"oom", oom, i9, Options{Instructions: n, MaxHeapBytes: 200 << 20}},
		{"alloc-3000", collections, i9, Options{Instructions: n, MaxHeapBytes: 200 << 20, AllocScale: 3000}},
		{"managed-random", runtimeP, i9, Options{Instructions: n, Policy: 1}},
		{"managed-nocompaction", runtimeP, i9, Options{Instructions: n, DisableCompaction: true, AllocScale: 4000}},
		{"server-20000", runtimeP, i9, Options{Instructions: n, GCMode: clr.Server, MaxHeapBytes: 20000 << 20, AllocScale: 4000}},
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
		if s.name == "server-reserve" && !errors.Is(gerr, clr.ErrServerGCReserve) {
			t.Fatalf("server-reserve step returned %v", gerr)
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

// runBytesBudget caps the heap bytes one run may allocate on a warmed
// Runner (CoreI9, the Quick budget of 6000 instructions). On linux/amd64
// with go1.24 a dotnet-individual workload's run allocated 1,088 bytes in
// 4 mallocs and the 16-core ASP.NET Json run 2,464 bytes in 20: the
// engine, the heap model and the result. The machine structures, the
// JIT's method table, the event log and the Zipf tables are all reused; a
// fresh Run allocates about 6.9 MB.
const runBytesBudget = 8 << 10

// TestRunnerAllocationBudget guards the point of the Runner: once warmed,
// a run reuses the machine and the managed runtime's state instead of
// allocating them.
func TestRunnerAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	ind, _ := workload.Builtin().Lookup("dotnet-individual")
	first, _ := ind.Lookup(ind.Name(0))
	for _, tc := range []struct {
		name string
		p    workload.Profile
		opts Options
	}{
		{"dotnet-individual", first, Options{Instructions: 6000}},
		{"aspnet-json-16", mustByName(t, "aspnet", "Json"), Options{Instructions: 6000, Cores: 16}},
	} {
		m := machine.CoreI9()
		var r Runner
		if _, err := r.Run(tc.p, m, tc.opts); err != nil {
			t.Fatal(err)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := r.Run(tc.p, m, tc.opts); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: a warmed run allocates %d bytes in %d mallocs", tc.name, per, (after.Mallocs-before.Mallocs)/runs)
		if per > runBytesBudget {
			t.Errorf("%s: a warmed run allocates %d bytes, budget %d", tc.name, per, runBytesBudget)
		}
	}
}
