// What-if: quantify the cross-stack hardware proposals from the paper's
// conclusion (§VIII) against the baseline machine. The paper argues that
// JIT and GC metadata, handed to the hardware through ISA hooks, could
// remove the cold-start and memory-management costs it measured; this
// example runs each proposal on the workload whose bottleneck it targets.
//
// Run with:
//
//	go run ./examples/whatif
package main

import (
	"fmt"
	"log"

	"repro/charnet"
)

func main() {
	type study struct {
		title    string
		workload string
		suite    string // wire name
		opts     charnet.Options
		assist   charnet.HWAssist
		counters func(charnet.Counters) (string, float64)
	}

	coldASP := charnet.Options{
		Instructions: 40000, Cores: 2,
		PrecompiledFrac: -1, DisableWarmup: true,
	}
	studies := []study{
		{
			title:    "ISA hooks: prefetch JITed code pages (§VII-A1 cold starts)",
			workload: "Json",
			suite:    "aspnet",
			opts:     coldASP,
			assist:   charnet.HWAssist{JITCodePrefetch: true},
			counters: func(c charnet.Counters) (string, float64) {
				return "L1I MPKI", c.MPKI(c.L1IMisses)
			},
		},
		{
			title:    "ISA hooks: transform predictor state on relocation",
			workload: "Json",
			suite:    "aspnet",
			opts: func() charnet.Options {
				o := coldASP
				o.TierUpCalls = 2
				o.Instructions = 60000
				return o
			}(),
			assist: charnet.HWAssist{PredictorTransform: true},
			counters: func(c charnet.Counters) (string, float64) {
				return "BTB misses PKI", c.MPKI(c.BTBMisses)
			},
		},
		{
			title:    "hardware GC offload (keep locality, drop overhead)",
			workload: "System.Collections",
			suite:    "dotnet",
			opts: charnet.Options{
				Instructions: 80000, MaxHeapBytes: 200 << 20, AllocScale: 3000,
			},
			assist: charnet.HWAssist{GCOffload: true},
			counters: func(c charnet.Counters) (string, float64) {
				return "instructions (K)", float64(c.Instructions) / 1000
			},
		},
		{
			title:    "hashed LLC slice placement (NoC contention)",
			workload: "DbFortunesRaw",
			suite:    "aspnet",
			opts:     charnet.Options{Instructions: 25000, Cores: 16},
			assist:   charnet.HWAssist{HashedSlicePlacement: true},
			counters: func(c charnet.Counters) (string, float64) {
				return "CPI", c.CPI()
			},
		},
	}

	for _, s := range studies {
		p, err := charnet.Workload(s.suite, s.workload)
		if err != nil {
			log.Fatal(err)
		}
		base, err := charnet.Run(p, charnet.CoreI9(), s.opts)
		if err != nil {
			log.Fatal(err)
		}
		opts := s.opts
		opts.Assist = s.assist
		assisted, err := charnet.Run(p, charnet.CoreI9(), opts)
		if err != nil {
			log.Fatal(err)
		}
		name, bv := s.counters(base.Counters)
		_, av := s.counters(assisted.Counters)
		fmt.Printf("%s\n", s.title)
		fmt.Printf("  workload %-20s %s: %.3f -> %.3f   CPI: %.3f -> %.3f\n\n",
			s.workload, name, bv, av, base.Counters.CPI(), assisted.Counters.CPI())
	}
	fmt.Println("every mechanism is implemented in the simulator; see internal/sim/hwassist.go")
}
