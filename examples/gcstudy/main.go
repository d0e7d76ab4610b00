// GC study: the paper's §VII-B experiment — run .NET microbenchmark
// categories under workstation and server GC at three maximum heap sizes
// (200/2000/20000 MiB) and compare GC trigger rates, LLC MPKI and
// execution time. Reproduces the shape of Fig 14: server GC collects much
// more often, improves cache behavior, and usually wins on time — except
// for cache-light math workloads, which only pay its overhead. Also
// reproduces the paper's startup failures (OutOfMemoryException under
// workstation GC at 200 MiB for big workloads; server GC reservation
// failures).
//
// Run with:
//
//	go run ./examples/gcstudy
package main

import (
	"fmt"
	"log"

	"repro/charnet"
)

func main() {
	names := []string{"System.Collections", "System.Linq", "System.MathBenchmarks"}
	heapsMiB := []int64{200, 2000, 20000}

	for _, name := range names {
		p, err := charnet.Workload("dotnet", name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", name)
		fmt.Printf("  %-12s %-9s %12s %12s %12s\n", "gc mode", "heap MiB", "GC PKI", "LLC MPKI", "rel. time")
		var baseline float64
		for _, mode := range []charnet.GCMode{charnet.Workstation, charnet.Server} {
			for _, heap := range heapsMiB {
				res, err := charnet.Run(p, charnet.CoreI9(), charnet.Options{
					Instructions: 40000,
					GCMode:       mode,
					MaxHeapBytes: heap << 20,
					// Time compression so multi-hundred-millisecond GC
					// periods fall inside the simulation window.
					AllocScale: 4000,
				})
				if err != nil {
					// The paper reports exactly these failures for some
					// (workload, GC, heap) combinations.
					fmt.Printf("  %-12s %-9d %s\n", mode, heap, err)
					continue
				}
				c := res.Counters
				secs := c.WallSeconds
				if baseline == 0 {
					baseline = secs
				}
				fmt.Printf("  %-12s %-9d %12.4f %12.3f %12.2f\n",
					mode, heap,
					c.MPKI(c.GCTriggered),
					c.MPKI(c.L3Misses),
					secs/baseline)
			}
		}
		fmt.Println()
	}
	fmt.Println("paper headline: server GC triggers ~6.18x more often, reaches ~0.59x the")
	fmt.Println("LLC MPKI, and runs ~1.14x faster — except cache-light math workloads.")
}
