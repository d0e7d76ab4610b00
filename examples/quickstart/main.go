// Quickstart: measure one .NET microbenchmark category on the paper's
// main machine and print its 24 Table I metrics and Top-Down profile.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/charnet"
)

func main() {
	// Pick a workload from the .NET suite (the paper's Table IV set
	// includes System.Runtime as a representative category).
	p, err := charnet.Workload("dotnet", "System.Runtime")
	if err != nil {
		log.Fatal(err)
	}

	// Run it on the Intel Core i9-9980XE model. Options{} uses defaults:
	// warmup pass discarded (like the paper's first-of-15 runs), the
	// workload's natural core count, workstation GC with a 2000 MiB cap.
	res, err := charnet.Run(p, charnet.CoreI9(), charnet.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Normalize raw counters into the paper's 24 characterization metrics.
	vec, err := charnet.Metrics(res)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %s (suite %s)\n", p.Name, p.Suite)
	fmt.Printf("machine:  %s, %d core(s)\n\n", res.Machine.Name, res.Cores)
	for i, name := range charnet.MetricNames() {
		fmt.Printf("  %2d  %-32s %10.4g\n", i, name, vec[i])
	}
	fmt.Printf("\nTop-Down: %s\n", res.Profile)
	fmt.Printf("CPI %.3f, branch MPKI %.2f, L1I MPKI %.2f, LLC MPKI %.3f\n",
		vec[charnet.CPI], vec[charnet.BranchMPKI], vec[charnet.L1IMPKI], vec[charnet.LLCMPKI])
}
