package sim

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/workload"
)

// TestSmokeNumbers prints representative counter values for hand
// calibration; it only asserts that runs complete and are sane.
func TestSmokeNumbers(t *testing.T) {
	m := machine.CoreI9()
	cases := []workload.Profile{}
	for _, name := range []string{"System.Runtime", "System.MathBenchmarks", "System.Net", "CscBench"} {
		p := mustByName(t, "dotnet", name)
		cases = append(cases, p)
	}
	for _, name := range []string{"Plaintext", "MvcDbFortunesRaw"} {
		p := mustByName(t, "aspnet", name)
		cases = append(cases, p)
	}
	for _, name := range []string{"mcf", "bwaves", "gcc", "xalancbmk"} {
		p := mustByName(t, "spec", name)
		cases = append(cases, p)
	}
	for _, p := range cases {
		res, err := Run(p, m, Options{Instructions: 50000})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		c := &res.Counters
		t.Logf("%-22s cores=%2d CPI=%.2f L1I=%.1f L1D=%.1f L2=%.1f LLC=%.2f ITLB=%.2f DTLBl=%.2f br=%.1f btb=%.1f pf=%.3f kern=%.1f%% | FE=%.1f BS=%.1f BE=%.1f RET=%.1f | jit=%.3f gc=%.4f",
			p.Name, res.Cores, c.CPI(),
			c.MPKI(c.L1IMisses), c.MPKI(c.L1DMisses), c.MPKI(c.L2Misses), c.MPKI(c.L3Misses),
			c.MPKI(c.ITLBMisses), c.MPKI(c.DTLBLoadMisses),
			c.MPKI(c.BranchMisses), c.MPKI(c.BTBMisses), c.MPKI(c.PageFaults),
			float64(c.KernelInstructions)/float64(c.Instructions)*100,
			res.Profile.FrontendBound, res.Profile.BadSpeculation, res.Profile.BackendBound, res.Profile.Retiring,
			c.MPKI(c.JITStarts), c.MPKI(c.GCTriggered))
		if c.Instructions == 0 || c.Cycles <= 0 {
			t.Fatalf("%s: empty run", p.Name)
		}
	}
}
