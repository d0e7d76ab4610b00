package perf

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// builtin returns a built-in suite by wire name.
func builtin(wire string) *workload.SuiteDef {
	def, ok := workload.Builtin().Lookup(wire)
	if !ok {
		panic("no built-in suite " + wire)
	}
	return def
}

func runOne(t *testing.T, p workload.Profile) metrics.Vector {
	t.Helper()
	res, err := sim.Run(p, machine.CoreI9(), sim.Options{Instructions: 30000})
	if err != nil {
		t.Fatal(err)
	}
	v, err := Normalize(res)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNormalizeManaged(t *testing.T) {
	p, _ := builtin("dotnet").Lookup("System.Linq")
	// Partially cold so JIT events are guaranteed inside the window.
	res, err := sim.Run(p, machine.CoreI9(), sim.Options{Instructions: 30000, PrecompiledFrac: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	v, err := Normalize(res)
	if err != nil {
		t.Fatal(err)
	}

	if v[metrics.KernelInstructions]+v[metrics.UserInstructions] != 100 {
		t.Fatal("kernel+user must sum to 100%")
	}
	if v[metrics.CPI] <= 0 {
		t.Fatalf("CPI = %v", v[metrics.CPI])
	}
	if v[metrics.BranchInstructions] < 5 || v[metrics.BranchInstructions] > 30 {
		t.Fatalf("branch share %v%% out of plausible range", v[metrics.BranchInstructions])
	}
	if v[metrics.JITStartedPKI] <= 0 {
		t.Fatal("managed workload should show JIT events")
	}
	if v[metrics.GCAllocTickPKI] <= 0 {
		t.Fatal("allocating workload should show allocation ticks")
	}
	if v[metrics.MemReadBW] < 0 || v[metrics.MemWriteBW] < 0 {
		t.Fatal("negative bandwidth")
	}
	if v[metrics.MemPageMissRate] < 0 || v[metrics.MemPageMissRate] > 100 {
		t.Fatalf("row miss rate %v", v[metrics.MemPageMissRate])
	}
}

func TestNormalizeNativeHasNoRuntimeEvents(t *testing.T) {
	p, _ := builtin("spec").Lookup("omnetpp")
	v := runOne(t, p)
	for _, id := range metrics.RuntimeIDs() {
		if v[id] != 0 {
			t.Fatalf("native workload has nonzero %s = %v", id.Name(), v[id])
		}
	}
}

func TestNormalizeRejectsEmptyRun(t *testing.T) {
	res := &sim.Result{}
	if _, err := Normalize(res); err == nil {
		t.Fatal("empty run accepted")
	}
}

func TestCPUUsage(t *testing.T) {
	p, _ := builtin("aspnet").Lookup("Plaintext")
	res, err := sim.Run(p, machine.CoreI9(), sim.Options{Instructions: 10000, Cores: 16})
	if err != nil {
		t.Fatal(err)
	}
	v, err := Normalize(res)
	if err != nil {
		t.Fatal(err)
	}
	if v[metrics.CPUUsage] <= 0 || v[metrics.CPUUsage] > 100 {
		t.Fatalf("CPU usage %v", v[metrics.CPUUsage])
	}
	// 16 of 18 vCPUs busy: high utilization.
	if v[metrics.CPUUsage] < 50 {
		t.Fatalf("16-core ASP.NET run should show high CPU usage, got %v", v[metrics.CPUUsage])
	}
	// A single-core microbenchmark on an 18-vCPU machine uses few of them.
	mp, _ := builtin("dotnet").Lookup("System.Runtime")
	mv := runOne(t, mp)
	if mv[metrics.CPUUsage] >= v[metrics.CPUUsage] {
		t.Fatal("single-core run should show lower machine-wide CPU usage")
	}
}

func TestVectorsValidateAcrossSuites(t *testing.T) {
	cases := []workload.Profile{}
	for _, n := range []string{"System.Runtime", "System.MathBenchmarks"} {
		p, _ := builtin("dotnet").Lookup(n)
		cases = append(cases, p)
	}
	for _, n := range []string{"mcf", "bwaves"} {
		p, _ := builtin("spec").Lookup(n)
		cases = append(cases, p)
	}
	for _, p := range cases {
		v := runOne(t, p)
		if err := v.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
}
