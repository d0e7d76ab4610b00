package charnet_test

import (
	"fmt"

	"repro/charnet"
)

// Example_measure runs one workload and prints a few Table I metrics.
// Everything is deterministic, so the output is stable.
func Example_measure() {
	p, err := charnet.Workload("dotnet", "System.MathBenchmarks")
	if err != nil {
		panic(err)
	}
	res, err := charnet.Run(p, charnet.CoreI9(), charnet.Options{Instructions: 10000})
	if err != nil {
		panic(err)
	}
	vec, err := charnet.Metrics(res)
	if err != nil {
		panic(err)
	}
	fmt.Printf("suite=%s cores=%d\n", p.Suite, res.Cores)
	fmt.Printf("CPI positive: %v\n", vec[charnet.CPI] > 0)
	fmt.Printf("LLC MPKI tiny: %v\n", vec[charnet.LLCMPKI] < 1)
	// Output:
	// suite=.NET cores=1
	// CPI positive: true
	// LLC MPKI tiny: true
}

// Example_subset derives a representative subset from a small suite slice.
func Example_subset() {
	cats, err := charnet.Workloads("dotnet")
	if err != nil {
		panic(err)
	}
	suite := cats[:6]
	ms := charnet.MeasureSuite(suite, charnet.CoreI9(), charnet.Options{Instructions: 5000})
	ch, err := charnet.Characterize(ms, 4, charnet.Average)
	if err != nil {
		panic(err)
	}
	sub := ch.Subset(2)
	fmt.Printf("picked %d of %d workloads\n", len(sub), len(suite))
	// Output:
	// picked 2 of 6 workloads
}
