package charnet_test

import (
	"strings"
	"testing"

	"repro/charnet"
)

func TestFacadeEndToEnd(t *testing.T) {
	// Catalogs, by wire name.
	for suite, want := range map[string]int{"dotnet": 44, "aspnet": 53} {
		ps, err := charnet.Workloads(suite)
		if err != nil || len(ps) != want {
			t.Fatalf("Workloads(%q) = %d workloads, %v; want %d", suite, len(ps), err, want)
		}
	}
	if _, err := charnet.Workloads("nosuch"); err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Fatalf("Workloads of an unknown suite returned %v, want an error naming it", err)
	}
	if _, err := charnet.Workload("nosuch", "Json"); err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Fatalf("Workload of an unknown suite returned %v, want an error naming it", err)
	}
	if _, err := charnet.Workload("spec", "Json"); err == nil || !strings.Contains(err.Error(), `"Json"`) {
		t.Fatalf("Workload of an unknown name returned %v, want an error naming it", err)
	}
	if len(charnet.Machines()) != 3 {
		t.Fatal("3 machines expected")
	}
	if len(charnet.MetricNames()) != 24 {
		t.Fatal("24 metrics expected")
	}

	// Run one workload and pull metrics.
	p, err := charnet.Workload("dotnet", "System.Runtime")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "System.Runtime" || p.Suite != charnet.DotNet {
		t.Fatalf("Workload returned %s of %s, want System.Runtime of .NET", p.Name, p.Suite)
	}
	res, err := charnet.Run(p, charnet.CoreI9(), charnet.Options{Instructions: 8000})
	if err != nil {
		t.Fatal(err)
	}
	vec, err := charnet.Metrics(res)
	if err != nil {
		t.Fatal(err)
	}
	if vec[charnet.CPI] <= 0 {
		t.Fatal("CPI must be positive")
	}

	// Characterize a small suite and validate a subset across machines.
	cats, err := charnet.Workloads("dotnet")
	if err != nil {
		t.Fatal(err)
	}
	suite := cats[:8]
	opts := charnet.Options{Instructions: 5000}
	msA := charnet.MeasureSuite(suite, charnet.CoreI9(), opts)
	msBase := charnet.MeasureSuite(suite, charnet.XeonE5(), opts)
	ch, err := charnet.Characterize(msA, 4, charnet.Average)
	if err != nil {
		t.Fatal(err)
	}
	sel := ch.Subset(3)
	val, err := charnet.ValidateSubset("facade", msBase, msA, sel)
	if err != nil {
		t.Fatal(err)
	}
	if val.AccuracyFraction <= 0 || val.AccuracyFraction > 1 {
		t.Fatalf("accuracy %v", val.AccuracyFraction)
	}
}

func TestSuiteConstants(t *testing.T) {
	if charnet.DotNet.String() != ".NET" || charnet.AspNet.String() != "ASP.NET" || charnet.SpecCPU17.String() != "SPEC CPU17" {
		t.Fatal("suite constants broken")
	}
}
