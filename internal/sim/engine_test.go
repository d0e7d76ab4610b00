package sim

import (
	"errors"
	"testing"

	"repro/internal/clr"
	"repro/internal/machine"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// mustByName resolves a built-in workload by suite wire name and name.
func mustByName(tb testing.TB, wire, name string) workload.Profile {
	tb.Helper()
	def, ok := workload.Builtin().Lookup(wire)
	if !ok {
		tb.Fatalf("no built-in suite %q", wire)
	}
	p, ok := def.Lookup(name)
	if !ok {
		tb.Fatalf("suite %q has no workload %q", wire, name)
	}
	return p
}

func TestRunValidatesInputs(t *testing.T) {
	var bad workload.Profile // zero profile is invalid
	if _, err := Run(bad, machine.CoreI9(), Options{}); err == nil {
		t.Fatal("invalid profile accepted")
	}
	p := mustByName(t, "spec", "mcf")
	m := machine.CoreI9()
	m.Cores = 0
	if _, err := Run(p, m, Options{}); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

func TestDeterminism(t *testing.T) {
	p := mustByName(t, "dotnet", "System.Runtime")
	a, err := Run(p, machine.CoreI9(), Options{Instructions: 20000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, machine.CoreI9(), Options{Instructions: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if a.Counters != b.Counters {
		t.Fatal("identical runs diverged")
	}
}

func TestSeedSaltChangesRun(t *testing.T) {
	p := mustByName(t, "dotnet", "System.Runtime")
	a, _ := Run(p, machine.CoreI9(), Options{Instructions: 20000})
	b, _ := Run(p, machine.CoreI9(), Options{Instructions: 20000, SeedSalt: 1})
	if a.Counters == b.Counters {
		t.Fatal("seed salt had no effect")
	}
}

func TestInstructionMixMatchesProfile(t *testing.T) {
	p := mustByName(t, "spec", "gcc")
	res, err := Run(p, machine.CoreI9(), Options{Instructions: 60000})
	if err != nil {
		t.Fatal(err)
	}
	c := &res.Counters
	branchShare := float64(c.Branches) / float64(c.Instructions)
	if branchShare < p.BranchFrac*0.7 || branchShare > p.BranchFrac*1.3 {
		t.Fatalf("branch share %.3f, profile %.3f", branchShare, p.BranchFrac)
	}
	loadShare := float64(c.Loads) / float64(c.Instructions)
	if loadShare < p.LoadFrac*0.7 || loadShare > p.LoadFrac*1.3 {
		t.Fatalf("load share %.3f, profile %.3f", loadShare, p.LoadFrac)
	}
}

func TestKernelShareTracksProfile(t *testing.T) {
	p := mustByName(t, "aspnet", "Plaintext")
	res, err := Run(p, machine.CoreI9(), Options{Instructions: 30000, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := &res.Counters
	share := float64(c.KernelInstructions) / float64(c.Instructions)
	if share < 0.35 || share > 0.7 {
		t.Fatalf("kernel share %.2f, profile wants ~%.2f", share, p.KernelFrac)
	}
}

func TestSuiteLLCOrdering(t *testing.T) {
	// Paper Fig 8 shape: SPEC LLC MPKI >> ASP.NET > .NET micro.
	run := func(p workload.Profile, cores int) float64 {
		res, err := Run(p, machine.CoreI9(), Options{Instructions: 40000, Cores: cores})
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters.MPKI(res.Counters.L3Misses)
	}
	micro := run(mustByName(t, "dotnet", "System.Runtime"), 1)
	specBig := run(mustByName(t, "spec", "mcf"), 1)
	if specBig < micro*10 {
		t.Fatalf("mcf LLC MPKI %.2f should dwarf System.Runtime's %.2f", specBig, micro)
	}
	if micro > 1.5 {
		t.Fatalf(".NET micro LLC MPKI %.2f should be near zero (paper GM 0.01)", micro)
	}
}

func TestManagedRuntimeEventsPresent(t *testing.T) {
	p := mustByName(t, "dotnet", "System.Linq")
	// A moderately cold process guarantees JIT activity inside the
	// measured window (steady-state churn alone is probabilistic at this
	// window size).
	res, err := Run(p, machine.CoreI9(), Options{Instructions: 60000, PrecompiledFrac: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	c := &res.Counters
	if c.JITStarts == 0 {
		t.Fatal("managed workload produced no JIT events")
	}
	if c.GCAllocTicks == 0 {
		t.Fatal("allocating workload produced no allocation ticks")
	}
	// Native workloads must have zero runtime events.
	spec, err := Run(mustByName(t, "spec", "mcf"), machine.CoreI9(), Options{Instructions: 20000})
	if err != nil {
		t.Fatal(err)
	}
	sc := &spec.Counters
	if sc.JITStarts != 0 || sc.GCTriggered != 0 || sc.Exceptions != 0 {
		t.Fatal("native workload emitted runtime events")
	}
}

func TestGCModeTriggerRatio(t *testing.T) {
	// §VII-B: server GC triggers several times more often (paper: 6.18x).
	p := mustByName(t, "dotnet", "System.Collections")
	opts := Options{Instructions: 120000, MaxHeapBytes: 200 << 20, AllocScale: 2000}
	opts.GCMode = clr.Workstation
	ws, err := Run(p, machine.CoreI9(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.GCMode = clr.Server
	srv, err := Run(p, machine.CoreI9(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Counters.GCTriggered == 0 || srv.Counters.GCTriggered == 0 {
		t.Fatalf("expected GCs under both modes: ws=%d srv=%d", ws.Counters.GCTriggered, srv.Counters.GCTriggered)
	}
	ratio := float64(srv.Counters.GCTriggered) / float64(ws.Counters.GCTriggered)
	if ratio < 2.5 || ratio > 15 {
		t.Fatalf("server/workstation GC ratio %.2f; paper ~6.18x", ratio)
	}
}

func TestServerGCImprovesLLC(t *testing.T) {
	// §VII-A2/Fig 14: the more aggressive GC compacts more often, keeping
	// the nursery window tight and cache-resident.
	p := mustByName(t, "dotnet", "System.Collections")
	opts := Options{Instructions: 150000, MaxHeapBytes: 200 << 20, AllocScale: 2000}
	opts.GCMode = clr.Workstation
	ws, err := Run(p, machine.CoreI9(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.GCMode = clr.Server
	srv, err := Run(p, machine.CoreI9(), opts)
	if err != nil {
		t.Fatal(err)
	}
	wsLLC := ws.Counters.MPKI(ws.Counters.L3Misses)
	srvLLC := srv.Counters.MPKI(srv.Counters.L3Misses)
	if srvLLC >= wsLLC {
		t.Fatalf("server GC LLC MPKI %.3f should beat workstation %.3f (paper: 0.59x)", srvLLC, wsLLC)
	}
}

func TestOOMPropagates(t *testing.T) {
	p := mustByName(t, "dotnet", "System.Collections")
	p.WorkingSetBytes = 190 << 20
	_, err := Run(p, machine.CoreI9(), Options{Instructions: 1000, MaxHeapBytes: 200 << 20})
	if !errors.Is(err, clr.ErrOutOfMemory) {
		t.Fatalf("expected OOM, got %v", err)
	}
}

func TestCoreScalingBackendPressure(t *testing.T) {
	// Figs 11-12: CPI and the L3-bound share grow with core count while
	// per-core LLC MPKI stays in the same ballpark.
	p := mustByName(t, "aspnet", "DbFortunesRaw")
	var cpis, l3bound, llc []float64
	for _, cores := range []int{1, 4, 16} {
		res, err := Run(p, machine.CoreI9(), Options{Instructions: 30000, Cores: cores})
		if err != nil {
			t.Fatal(err)
		}
		cpis = append(cpis, res.Counters.CPI())
		l3bound = append(l3bound, res.Profile.MemL3)
		llc = append(llc, res.Counters.MPKI(res.Counters.L3Misses))
	}
	if !(cpis[0] < cpis[2]) {
		t.Fatalf("CPI should grow with cores: %v", cpis)
	}
	if !(l3bound[0] < l3bound[2]) {
		t.Fatalf("L3-bound share should grow with cores: %v", l3bound)
	}
	if llc[2] > 6 {
		t.Fatalf("per-core LLC MPKI should stay low and roughly stable: %v", llc)
	}
}

func TestJITRelocationAblation(t *testing.T) {
	// §VII-A1: disabling code relocation (the ablation) removes the cold
	// start on tier-up, reducing I-side misses and page faults.
	p := mustByName(t, "aspnet", "Json")
	// Cold run: warmup would absorb the tier-ups whose relocation cost the
	// ablation isolates.
	// Fully cold process, aggressive tier-up: every hot method compiles
	// and then re-compiles, so the relocation cost dominates noise.
	base := Options{Instructions: 60000, Cores: 2, TierUpCalls: 2, PrecompiledFrac: -1, DisableWarmup: true}
	withReloc, err := Run(p, machine.CoreI9(), base)
	if err != nil {
		t.Fatal(err)
	}
	base.DisableRelocation = true
	noReloc, err := Run(p, machine.CoreI9(), base)
	if err != nil {
		t.Fatal(err)
	}
	if noReloc.Counters.PageFaults >= withReloc.Counters.PageFaults {
		t.Fatalf("relocation off should reduce page faults: %d vs %d",
			noReloc.Counters.PageFaults, withReloc.Counters.PageFaults)
	}
}

func TestArmFrictionHurtsManagedITLB(t *testing.T) {
	// §V-D: Arm's immature .NET stack shows far worse I-TLB behavior.
	p := mustByName(t, "dotnet", "System.Runtime")
	x86, err := Run(p, machine.CoreI9(), Options{Instructions: 40000})
	if err != nil {
		t.Fatal(err)
	}
	arm, err := Run(p, machine.Arm(), Options{Instructions: 40000})
	if err != nil {
		t.Fatal(err)
	}
	xi := x86.Counters.MPKI(x86.Counters.ITLBMisses)
	ai := arm.Counters.MPKI(arm.Counters.ITLBMisses)
	if ai < xi*3 {
		t.Fatalf("Arm I-TLB MPKI %.2f should far exceed x86 %.2f (paper: ~80x)", ai, xi)
	}
}

func TestSamplesCollected(t *testing.T) {
	p := mustByName(t, "aspnet", "Json")
	res, err := Run(p, machine.CoreI9(), Options{Instructions: 40000, Cores: 2, SampleInterval: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) < 5 {
		t.Fatalf("expected samples, got %d", len(res.Samples))
	}
	var instr uint64
	for _, s := range res.Samples {
		instr += s.Instructions
		if s.Cycles < 0 {
			t.Fatal("negative sample cycles")
		}
	}
	if instr == 0 {
		t.Fatal("samples carry no instructions")
	}
}

func TestTopdownConsistency(t *testing.T) {
	for _, p := range []workload.Profile{
		mustByName(t, "dotnet", "System.Runtime"),
		mustByName(t, "spec", "bwaves"),
		mustByName(t, "aspnet", "Plaintext"),
	} {
		res, err := Run(p, machine.CoreI9(), Options{Instructions: 20000, Cores: 2})
		if err != nil {
			t.Fatal(err)
		}
		sum := res.Profile.Level1Sum()
		if sum < 99.9 || sum > 100.1 {
			t.Fatalf("%s: level-1 profile sums to %.3f", p.Name, sum)
		}
	}
}

func TestWarmupDiscard(t *testing.T) {
	// With warmup the measured window should look steadier: fewer cold
	// JIT compilations than a cold run of the same length.
	p := mustByName(t, "dotnet", "System.Linq")
	warm, err := Run(p, machine.CoreI9(), Options{Instructions: 40000, PrecompiledFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(p, machine.CoreI9(), Options{Instructions: 40000, PrecompiledFrac: 0.5, DisableWarmup: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Counters.JITStarts >= cold.Counters.JITStarts {
		t.Fatalf("warmup should absorb cold JITs: warm=%d cold=%d",
			warm.Counters.JITStarts, cold.Counters.JITStarts)
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{Instructions: 10, Cycles: 5, L3Misses: 2}
	b := Counters{Instructions: 20, Cycles: 10, L3Misses: 3}
	a.Add(&b)
	if a.Instructions != 30 || a.Cycles != 15 || a.L3Misses != 5 {
		t.Fatalf("Add result %+v", a)
	}
}

func TestRates(t *testing.T) {
	c := Counters{Instructions: 2000, Cycles: 1000, BranchMisses: 4}
	testutil.InDelta(t, "MPKI", c.MPKI(c.BranchMisses), 2, 1e-12)
	testutil.InDelta(t, "CPI", c.CPI(), 0.5, 1e-12)
	testutil.InDelta(t, "IPC", c.IPC(), 2, 1e-12)
	var zero Counters
	testutil.InDelta(t, "zero MPKI", zero.MPKI(1), 0, 0)
	testutil.InDelta(t, "zero CPI", zero.CPI(), 0, 0)
	testutil.InDelta(t, "zero IPC", zero.IPC(), 0, 0)
	var s Sample
	testutil.InDelta(t, "zero sample IPC", s.IPC(), 0, 0)
}
