// Package repro_test is the benchmark harness of the reproduction: one
// testing.B benchmark per paper table/figure regenerates that artifact
// from scratch (fresh measurements, no cross-iteration caching), plus
// ablation benchmarks for the design choices called out in DESIGN.md §5.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mstore"
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

// benchCfg is the fidelity used by the per-figure benchmarks: high enough
// to exercise the full pipeline, low enough that every figure regenerates
// in seconds.
func benchCfg() experiments.Config {
	cfg := experiments.Quick()
	cfg.Instructions = 10000
	return cfg
}

func benchFigure[T any](b *testing.B, f func(context.Context, *experiments.Lab) (T, error)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchCfg())
		if _, err := f(context.Background(), lab); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper artifact ---

func BenchmarkTableIII(b *testing.B) { benchFigure(b, experiments.TableIII) }
func BenchmarkTableIV(b *testing.B)  { benchFigure(b, experiments.TableIV) }

// BenchmarkTableIVWarmCache regenerates Table IV with a warm measurement
// store: every suite measurement is served from disk and only the
// analysis (PCA, clustering, subsetting, validation) reruns. The ratio to
// BenchmarkTableIV is the speedup the `charnet -cache DIR` flag buys on
// repeated invocations.
func BenchmarkTableIVWarmCache(b *testing.B) {
	store, err := mstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	warm := experiments.NewLab(benchCfg())
	warm.Store = store
	if _, err := experiments.TableIV(context.Background(), warm); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchCfg())
		lab.Store = store
		if _, err := experiments.TableIV(context.Background(), lab); err != nil {
			b.Fatal(err)
		}
	}
}
func BenchmarkFigure1(b *testing.B)  { benchFigure(b, experiments.Figure1) }
func BenchmarkFigure2(b *testing.B)  { benchFigure(b, experiments.Figure2) }
func BenchmarkFigure3(b *testing.B)  { benchFigure(b, experiments.Figure3) }
func BenchmarkFigure4(b *testing.B)  { benchFigure(b, experiments.Figure4) }
func BenchmarkFigure5(b *testing.B)  { benchFigure(b, experiments.Figure5) }
func BenchmarkFigure6(b *testing.B)  { benchFigure(b, experiments.Figure6) }
func BenchmarkFigure7(b *testing.B)  { benchFigure(b, experiments.Figure7) }
func BenchmarkFigure8(b *testing.B)  { benchFigure(b, experiments.Figure8) }
func BenchmarkFigure9(b *testing.B)  { benchFigure(b, experiments.Figure9) }
func BenchmarkFigure10(b *testing.B) { benchFigure(b, experiments.Figure10) }

// Figures 11 and 12 render different artifacts from the same core-count
// sweep; each benchmark uses a fresh lab, so both pay the full sweep.
func BenchmarkFigure11(b *testing.B) { benchFigure(b, experiments.Figure11) }
func BenchmarkFigure12(b *testing.B) { benchFigure(b, experiments.Figure12) }
func BenchmarkFigure13(b *testing.B) { benchFigure(b, experiments.Figure13) }
func BenchmarkFigure14(b *testing.B) { benchFigure(b, experiments.Figure14) }

// --- Simulator microbenchmarks ---

// BenchmarkSimulatorThroughput measures raw engine speed in instructions
// per second for a representative managed workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p, _ := builtin("dotnet").Lookup("System.Runtime")
	m := machine.CoreI9()
	const instr = 50_000
	b.SetBytes(instr) // report "bytes" as instructions for MB/s ~ MIPS
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(p, m, sim.Options{Instructions: instr}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureSuite measures the parallel suite-measurement harness
// over the 44 .NET categories.
func BenchmarkMeasureSuite(b *testing.B) {
	cats := builtin("dotnet").Profiles()
	m := machine.CoreI9()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.MeasureSuite(context.Background(), nil, cats, m, sim.Options{Instructions: 5000}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// measureOnce returns cached category measurements for the ablations that
// only vary the analysis (not the measurement).
var ablationMeasurements []core.Measurement

func ablationMs(b *testing.B) []core.Measurement {
	if ablationMeasurements == nil {
		ms, err := core.MeasureSuite(context.Background(), nil,
			builtin("dotnet").Profiles(), machine.CoreI9(), sim.Options{Instructions: 8000}, 0)
		if err != nil {
			b.Fatal(err)
		}
		ablationMeasurements = ms
	}
	return ablationMeasurements
}

// BenchmarkAblationLinkage compares hierarchical-clustering linkage
// choices on subset quality.
func BenchmarkAblationLinkage(b *testing.B) {
	ms := ablationMs(b)
	for _, lk := range []cluster.Linkage{cluster.Average, cluster.Complete, cluster.Ward, cluster.Single} {
		b.Run(lk.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ch, err := core.Characterize(ms, 4, lk)
				if err != nil {
					b.Fatal(err)
				}
				_ = ch.Subset(8)
			}
		})
	}
}

// BenchmarkAblationTopPCs varies the number of retained principal
// components (the paper keeps 4).
func BenchmarkAblationTopPCs(b *testing.B) {
	ms := ablationMs(b)
	for _, k := range []int{2, 4, 8} {
		b.Run(map[int]string{2: "pc2", 4: "pc4", 8: "pc8"}[k], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ch, err := core.Characterize(ms, k, cluster.Average)
				if err != nil {
					b.Fatal(err)
				}
				_ = ch.Subset(8)
			}
		})
	}
}

// BenchmarkAblationReplacement compares LRU vs random cache replacement.
func BenchmarkAblationReplacement(b *testing.B) {
	p, _ := builtin("spec").Lookup("omnetpp")
	m := machine.CoreI9()
	for name, pol := range map[string]mem.ReplacementPolicy{"lru": mem.LRU, "random": mem.Random} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(p, m, sim.Options{Instructions: 30000, Policy: pol})
				if err != nil {
					b.Fatal(err)
				}
				_ = res.Counters.MPKI(res.Counters.L1DMisses)
			}
		})
	}
}

// BenchmarkAblationGCCompaction isolates the locality benefit of heap
// compaction behind the paper's GC findings.
func BenchmarkAblationGCCompaction(b *testing.B) {
	p, _ := builtin("dotnet").Lookup("System.Collections")
	m := machine.CoreI9()
	for name, disable := range map[string]bool{"compaction-on": false, "compaction-off": true} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(p, m, sim.Options{
					Instructions: 30000, MaxHeapBytes: 200 << 20,
					AllocScale: 4000, DisableCompaction: disable,
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = res.Counters.MPKI(res.Counters.L3Misses)
			}
		})
	}
}

// BenchmarkAblationJITRelocation isolates the cold-start cost of JIT code
// motion (§VII-A1).
func BenchmarkAblationJITRelocation(b *testing.B) {
	p, _ := builtin("aspnet").Lookup("Json")
	m := machine.CoreI9()
	for name, disable := range map[string]bool{"relocation-on": false, "relocation-off": true} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(p, m, sim.Options{
					Instructions: 20000, Cores: 2, TierUpCalls: 2,
					PrecompiledFrac: -1, DisableWarmup: true, DisableRelocation: disable,
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = res.Counters.PageFaults
			}
		})
	}
}
