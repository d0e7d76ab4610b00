package sim

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/workload"
)

// baselineAndAssist runs the same configuration twice, with and without
// the given assist.
func baselineAndAssist(t *testing.T, p workload.Profile, opts Options, a HWAssist) (base, assisted *Result) {
	t.Helper()
	var err error
	base, err = Run(p, machine.CoreI9(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Assist = a
	assisted, err = Run(p, machine.CoreI9(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return base, assisted
}

func TestHWAssistAny(t *testing.T) {
	if (HWAssist{}).Any() {
		t.Fatal("zero assist should be off")
	}
	if !(HWAssist{GCOffload: true}).Any() {
		t.Fatal("GCOffload should count")
	}
}

func TestGCOffloadKeepsLocalityDropsOverhead(t *testing.T) {
	p := mustByName(t, "dotnet", "System.Collections")
	opts := Options{Instructions: 100000, MaxHeapBytes: 200 << 20, AllocScale: 3000}
	base, offl := baselineAndAssist(t, p, opts, HWAssist{GCOffload: true})

	if base.Counters.GCTriggered == 0 {
		t.Fatal("baseline must collect for the comparison to mean anything")
	}
	if offl.Counters.GCTriggered == 0 {
		t.Fatal("offloaded run must still trigger collections")
	}
	// The offloaded collector costs almost no application instructions.
	if offl.Counters.Instructions >= base.Counters.Instructions {
		t.Fatalf("GC offload should reduce instruction overhead: %d vs %d",
			offl.Counters.Instructions, base.Counters.Instructions)
	}
	// The compaction locality benefit is preserved: LLC MPKI must not
	// regress materially.
	bLLC := base.Counters.MPKI(base.Counters.L3Misses)
	oLLC := offl.Counters.MPKI(offl.Counters.L3Misses)
	if oLLC > bLLC*1.5+0.2 {
		t.Fatalf("GC offload lost the locality benefit: %.3f vs %.3f", oLLC, bLLC)
	}
	// No collector cache pollution: the offloaded run is at least as fast.
	if offl.Counters.CPI() > base.Counters.CPI()*1.02 {
		t.Fatalf("GC offload CPI %.3f should not exceed baseline %.3f",
			offl.Counters.CPI(), base.Counters.CPI())
	}
}

func TestJITCodePrefetchReducesColdMisses(t *testing.T) {
	p := mustByName(t, "aspnet", "Json")
	// Cold process, so measured compilations are plentiful.
	opts := Options{
		Instructions: 50000, Cores: 2,
		PrecompiledFrac: -1, DisableWarmup: true, TierUpCalls: 1 << 62,
	}
	base, pf := baselineAndAssist(t, p, opts, HWAssist{JITCodePrefetch: true})
	bI := base.Counters.MPKI(base.Counters.L1IMisses)
	aI := pf.Counters.MPKI(pf.Counters.L1IMisses)
	if aI >= bI {
		t.Fatalf("JIT code prefetch should cut L1I MPKI: %.2f vs %.2f", aI, bI)
	}
	bT := base.Counters.MPKI(base.Counters.ITLBMisses)
	aT := pf.Counters.MPKI(pf.Counters.ITLBMisses)
	if aT > bT {
		t.Fatalf("JIT code prefetch should not raise I-TLB MPKI: %.2f vs %.2f", aT, bT)
	}
}

func TestPredictorTransformReducesResteers(t *testing.T) {
	p := mustByName(t, "aspnet", "Json")
	// Heavy relocation churn so the transform has cold starts to remove.
	opts := Options{
		Instructions: 60000, Cores: 2,
		PrecompiledFrac: -1, DisableWarmup: true, TierUpCalls: 2,
	}
	base, tr := baselineAndAssist(t, p, opts, HWAssist{PredictorTransform: true})
	if tr.Counters.BTBMisses >= base.Counters.BTBMisses {
		t.Fatalf("predictor transform should cut BTB cold misses: %d vs %d",
			tr.Counters.BTBMisses, base.Counters.BTBMisses)
	}
	if tr.Counters.BranchMisses > base.Counters.BranchMisses {
		t.Fatalf("predictor transform should not raise mispredicts: %d vs %d",
			tr.Counters.BranchMisses, base.Counters.BranchMisses)
	}
}

func TestHashedPlacementFlattensHotSlices(t *testing.T) {
	p := mustByName(t, "aspnet", "DbFortunesRaw")
	opts := Options{Instructions: 25000, Cores: 16}
	base, hashed := baselineAndAssist(t, p, opts, HWAssist{HashedSlicePlacement: true})
	// Hashing must not break correctness: similar LLC miss volume.
	bM := base.Counters.MPKI(base.Counters.L3Misses)
	hM := hashed.Counters.MPKI(hashed.Counters.L3Misses)
	if hM > bM*2+1 {
		t.Fatalf("hashed placement should not explode misses: %.3f vs %.3f", hM, bM)
	}
}

func TestHugePageCodeCollapsesITLBPressure(t *testing.T) {
	// The assist matters most where the code footprint is sparse: the
	// friction (Arm-like) platform with page-aligned JIT code.
	p := mustByName(t, "dotnet", "CscBench")
	opts := Options{Instructions: 40000}
	base, err := Run(p, machine.Arm(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Assist = HWAssist{HugePageCode: true}
	huge, err := Run(p, machine.Arm(), opts)
	if err != nil {
		t.Fatal(err)
	}
	bT := base.Counters.MPKI(base.Counters.ITLBMisses)
	hT := huge.Counters.MPKI(huge.Counters.ITLBMisses)
	if hT >= bT {
		t.Fatalf("huge-page code should cut I-TLB MPKI: %.2f vs %.2f", hT, bT)
	}
	if huge.Counters.CPI() > base.Counters.CPI() {
		t.Fatalf("huge pages should not slow the run: %.3f vs %.3f",
			huge.Counters.CPI(), base.Counters.CPI())
	}
}
