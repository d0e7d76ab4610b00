package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/artifact"
	"repro/internal/clr"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Figure13Result reproduces Figs 13a/13b: Pearson correlations of JIT and
// GC event samples with performance-counter samples for the ASP.NET
// subset.
type Figure13Result struct {
	// JIT[benchmark][counter] — measured with a maximum heap so GC noise
	// is suppressed (§VII-A); GC[benchmark][counter] — measured with a
	// small heap to provoke collections.
	JIT map[string]map[trace.CounterSeries]float64
	GC  map[string]map[trace.CounterSeries]float64
	// Rank-correlation (Spearman) cross-checks, robust to outlier bins.
	JITRank map[string]map[trace.CounterSeries]float64
	GCRank  map[string]map[trace.CounterSeries]float64
}

// figure13Counters are the series the paper's Fig 13 bars show.
func figure13Counters() []trace.CounterSeries {
	return []trace.CounterSeries{
		trace.SeriesBranchMPKI, trace.SeriesL1IMPKI, trace.SeriesLLCMPKI,
		trace.SeriesPageFaults, trace.SeriesUselessPref, trace.SeriesIPC,
		trace.SeriesInstrs,
	}
}

// Figure13 runs the correlation studies.
func Figure13(ctx context.Context, l *Lab) (*Figure13Result, error) {
	out := &Figure13Result{
		JIT:     map[string]map[trace.CounterSeries]float64{},
		GC:      map[string]map[trace.CounterSeries]float64{},
		JITRank: map[string]map[trace.CounterSeries]float64{},
		GCRank:  map[string]map[trace.CounterSeries]float64{},
	}
	names := TableIVAspNetSubset
	if l.Cfg.Instructions <= 8000 {
		names = names[:3]
	}
	ps, err := l.workloads("aspnet", names)
	if err != nil {
		return nil, err
	}
	for _, p := range ps {
		name := p.Name
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// JIT study: huge heap (no GC), churning code.
		jitRes, err := sim.Run(p, machine.CoreI9(), sim.Options{
			Instructions:    l.Cfg.Instructions * 2,
			Cores:           4,
			MaxHeapBytes:    20000 << 20,
			SampleInterval:  l.Cfg.SampleInterval,
			TierUpCalls:     50,
			PrecompiledFrac: 0.9,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 13 JIT run %s: %w", name, err)
		}
		jitCors, err := trace.StudyLagged(jitRes.Samples, trace.EventJIT, figure13Counters(), 0)
		if err != nil {
			return nil, err
		}
		out.JIT[name] = corMap(jitCors)
		out.JITRank[name] = rankMap(jitCors)

		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// GC study: small heap, aggressive allocation compression.
		gcRes, err := sim.Run(p, machine.CoreI9(), sim.Options{
			Instructions:   l.Cfg.Instructions * 2,
			Cores:          4,
			MaxHeapBytes:   200 << 20,
			AllocScale:     4000,
			SampleInterval: l.Cfg.SampleInterval,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 13 GC run %s: %w", name, err)
		}
		gcCors, err := trace.StudyLagged(gcRes.Samples, trace.EventGC, figure13Counters(), 0)
		if err != nil {
			return nil, err
		}
		out.GC[name] = corMap(gcCors)
		out.GCRank[name] = rankMap(gcCors)
	}
	return out, nil
}

func corMap(cs []trace.Correlation) map[trace.CounterSeries]float64 {
	m := make(map[trace.CounterSeries]float64, len(cs))
	for _, c := range cs {
		m[c.Counter] = c.R
	}
	return m
}

func rankMap(cs []trace.Correlation) map[trace.CounterSeries]float64 {
	m := make(map[trace.CounterSeries]float64, len(cs))
	for _, c := range cs {
		m[c.Counter] = c.Spearman
	}
	return m
}

// MeanJIT and MeanGC average correlations across benchmarks.
func (r *Figure13Result) MeanJIT(c trace.CounterSeries) float64 { return meanOf(r.JIT, c) }

// MeanGC averages the GC-study correlation for one counter.
func (r *Figure13Result) MeanGC(c trace.CounterSeries) float64 { return meanOf(r.GC, c) }

func meanOf(m map[string]map[trace.CounterSeries]float64, c trace.CounterSeries) float64 {
	// Iterate in sorted key order: float summation inside Mean is not
	// associative, so map order could perturb the last bits of the result.
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	xs := make([]float64, 0, len(names))
	for _, n := range names {
		xs = append(xs, m[n][c])
	}
	return stats.Mean(xs)
}

// heatmapTable converts one per-benchmark correlation map into a
// heatmap-styled table payload (benchmarks sorted, counters in Fig 13
// order).
func heatmapTable(name, title string, m map[string]map[trace.CounterSeries]float64) *artifact.Table {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	cols := []artifact.Column{{Name: "benchmark"}}
	for _, c := range figure13Counters() {
		cols = append(cols, artifact.Column{Name: string(c), Unit: "r"})
	}
	rows := make([][]artifact.Value, len(names))
	for i, n := range names {
		row := []artifact.Value{artifact.Str(n)}
		for _, c := range figure13Counters() {
			row = append(row, artifact.Number(m[n][c]))
		}
		rows[i] = row
	}
	return &artifact.Table{Name: name, Title: title, Columns: cols, Rows: rows, Style: artifact.StyleHeatmap}
}

// Artifact renders Fig 13: the mean-correlation table and the two
// per-benchmark heatmaps.
func (r *Figure13Result) Artifact() *artifact.Artifact {
	direction := map[trace.CounterSeries]string{
		trace.SeriesBranchMPKI:  "JIT +",
		trace.SeriesL1IMPKI:     "JIT + (~5%)",
		trace.SeriesLLCMPKI:     "JIT +, GC - (~8%)",
		trace.SeriesPageFaults:  "JIT + (5-20%)",
		trace.SeriesUselessPref: "JIT -",
		trace.SeriesIPC:         "GC +",
		trace.SeriesInstrs:      "GC +",
	}
	signed := func(v float64) artifact.Value { return artifact.Num(fmt.Sprintf("%+.3f", v), v) }
	var rows [][]artifact.Value
	for _, c := range figure13Counters() {
		rows = append(rows, []artifact.Value{
			artifact.Str(string(c)),
			signed(r.MeanJIT(c)),
			signed(meanOf(r.JITRank, c)),
			signed(r.MeanGC(c)),
			signed(meanOf(r.GCRank, c)),
			artifact.Str(direction[c]),
		})
	}
	a := &artifact.Artifact{Name: "fig13", Title: "Fig 13: runtime-event correlations", Paper: "Fig. 13"}
	a.Add(
		artifact.NoteLine("header", "Fig 13: correlation of runtime events with counters (mean Pearson r over ASP.NET subset)"),
		&artifact.Table{
			Name: "means",
			Columns: []artifact.Column{
				{Name: "counter"}, {Name: "(a) JIT r"}, {Name: "(a) JIT ρ"},
				{Name: "(b) GC r"}, {Name: "(b) GC ρ"}, {Name: "paper direction"},
			},
			Rows: rows,
		},
		heatmapTable("jit-heatmap", "  (a) JIT-start correlations per benchmark", r.JIT),
		heatmapTable("gc-heatmap", "  (b) GC correlations per benchmark", r.GC),
	)
	return a
}

// String renders Fig 13.
func (r *Figure13Result) String() string { return artifact.Text(r.Artifact()) }

// GCConfigResult is one (GC mode, heap size) cell of Fig 14.
type GCConfigResult struct {
	Mode     clr.GCMode
	HeapMiB  int64
	Failed   bool // OutOfMemory / server reservation failure, as in §VII-B
	FailMsg  string
	GCPKI    float64
	LLCMPKI  float64
	Seconds  float64 // execution time
	Relative struct {
		GCPKI, LLCMPKI, Seconds float64 // normalized to workstation@200MiB
	}
}

// Figure14Result reproduces Fig 14: workstation vs server GC across
// maximum heap sizes 200/2000/20000 MiB for the .NET subset.
type Figure14Result struct {
	// Per benchmark, per configuration in sweep order:
	// (ws,200) (ws,2000) (ws,20000) (srv,200) (srv,2000) (srv,20000).
	Cells map[string][]GCConfigResult
	// Aggregates over benchmarks (successful cells only).
	ServerOverWorkstationGC  float64 // paper: 6.18x more triggers
	ServerOverWorkstationLLC float64 // paper: 0.59x LLC MPKI
	ServerSpeedup            float64 // paper: 1.14x faster
}

// figure14Heaps is the paper's heap-size sweep in MiB.
var figure14Heaps = []int64{200, 2000, 20000}

// Figure14 sweeps GC modes and heap sizes over the .NET subset.
func Figure14(ctx context.Context, l *Lab) (*Figure14Result, error) {
	out := &Figure14Result{Cells: map[string][]GCConfigResult{}}
	names := TableIVDotNetSubset
	if l.Cfg.Instructions <= 8000 {
		names = []string{"System.Runtime", "System.Linq", "System.MathBenchmarks"}
	}
	ps, err := l.workloads("dotnet", names)
	if err != nil {
		return nil, err
	}

	var gcRatios, llcRatios, speedups []float64
	for _, p := range ps {
		name := p.Name
		var cells []GCConfigResult
		for _, mode := range []clr.GCMode{clr.Workstation, clr.Server} {
			for _, heapMiB := range figure14Heaps {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				cell := GCConfigResult{Mode: mode, HeapMiB: heapMiB}
				res, err := sim.Run(p, machine.CoreI9(), sim.Options{
					// Long enough that workstation GC completes full
					// nursery cycles even at the large heap caps.
					Instructions: l.Cfg.Instructions * 4,
					GCMode:       mode,
					MaxHeapBytes: heapMiB << 20,
					AllocScale:   4000,
				})
				if err != nil {
					if errors.Is(err, clr.ErrOutOfMemory) || errors.Is(err, clr.ErrServerGCReserve) {
						cell.Failed = true
						cell.FailMsg = err.Error()
						cells = append(cells, cell)
						continue
					}
					return nil, fmt.Errorf("experiments: figure 14 %s %v/%dMiB: %w", name, mode, heapMiB, err)
				}
				cell.GCPKI = res.Counters.MPKI(res.Counters.GCTriggered)
				cell.LLCMPKI = res.Counters.MPKI(res.Counters.L3Misses)
				cell.Seconds = res.Counters.WallSeconds
				cells = append(cells, cell)
			}
		}
		// Pairwise server-vs-workstation comparisons at matching heap
		// sizes (only pairs where both configurations ran).
		for i := range figure14Heaps {
			ws, srv := cells[i], cells[i+len(figure14Heaps)]
			if ws.Failed || srv.Failed {
				continue
			}
			if ws.GCPKI > 0 && srv.GCPKI > 0 {
				gcRatios = append(gcRatios, srv.GCPKI/ws.GCPKI)
			}
			// Floor rather than drop near-zero LLC values: a server-GC run
			// that eliminates LLC misses entirely is the strongest
			// evidence for the paper's claim, not a pair to discard.
			const llcFloor = 0.02
			if ws.LLCMPKI > llcFloor || srv.LLCMPKI > llcFloor {
				a, b := srv.LLCMPKI, ws.LLCMPKI
				if a < llcFloor {
					a = llcFloor
				}
				if b < llcFloor {
					b = llcFloor
				}
				llcRatios = append(llcRatios, a/b)
			}
			if srv.Seconds > 0 {
				speedups = append(speedups, ws.Seconds/srv.Seconds)
			}
		}
		// Normalize to workstation@200MiB, as the figure caption states.
		base := cells[0]
		for i := range cells {
			if cells[i].Failed || base.Failed {
				continue
			}
			cells[i].Relative.GCPKI = ratio(cells[i].GCPKI, base.GCPKI)
			cells[i].Relative.LLCMPKI = ratio(cells[i].LLCMPKI, base.LLCMPKI)
			cells[i].Relative.Seconds = ratio(cells[i].Seconds, base.Seconds)
		}
		out.Cells[name] = cells
	}
	out.ServerOverWorkstationGC = stats.GeoMean(gcRatios)
	out.ServerOverWorkstationLLC = stats.GeoMean(llcRatios)
	out.ServerSpeedup = stats.GeoMean(speedups)
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Artifact renders Fig 14: the per-cell table, the aggregate callout
// lines, and a hidden aggregate table with the unrounded ratios.
func (r *Figure14Result) Artifact() *artifact.Artifact {
	names := make([]string, 0, len(r.Cells))
	for name := range r.Cells {
		names = append(names, name)
	}
	sort.Strings(names)
	var rows [][]artifact.Value
	for _, name := range names {
		for _, c := range r.Cells[name] {
			if c.Failed {
				rows = append(rows, []artifact.Value{
					artifact.Str(name), artifact.Str(c.Mode.String()),
					artifact.Num(fmt.Sprintf("%d", c.HeapMiB), float64(c.HeapMiB)),
					artifact.Str("FAILED"), artifact.Str("-"), artifact.Str("-"),
				})
				continue
			}
			rows = append(rows, []artifact.Value{
				artifact.Str(name), artifact.Str(c.Mode.String()),
				artifact.Num(fmt.Sprintf("%d", c.HeapMiB), float64(c.HeapMiB)),
				artifact.Num(fmt.Sprintf("%.4f", c.GCPKI), c.GCPKI),
				artifact.Num(fmt.Sprintf("%.3f", c.LLCMPKI), c.LLCMPKI),
				artifact.Num(fmt.Sprintf("%.2f", c.Relative.Seconds), c.Relative.Seconds),
			})
		}
	}
	a := &artifact.Artifact{Name: "fig14", Title: "Fig 14: workstation vs server GC", Paper: "Fig. 14"}
	a.Add(
		artifact.NoteLine("header", "Fig 14: workstation vs server GC across max heap sizes"),
		&artifact.Table{
			Name: "cells",
			Columns: []artifact.Column{
				{Name: "benchmark"}, {Name: "mode"}, {Name: "heap MiB", Unit: "MiB"},
				{Name: "GC PKI"}, {Name: "LLC MPKI"}, {Name: "time (rel)"},
			},
			Rows: rows,
		},
		&artifact.Note{Name: "aggregates", Lines: []string{
			fmt.Sprintf("  server/workstation GC triggers: %.2fx (paper: 6.18x)", r.ServerOverWorkstationGC),
			fmt.Sprintf("  server/workstation LLC MPKI:    %.2fx (paper: 0.59x)", r.ServerOverWorkstationLLC),
			fmt.Sprintf("  server speedup:                 %.2fx (paper: 1.14x)", r.ServerSpeedup),
		}},
		&artifact.Table{
			Name:    "aggregates-data",
			Hidden:  true,
			Columns: []artifact.Column{{Name: "ratio"}, {Name: "value", Unit: "x"}},
			Rows: [][]artifact.Value{
				{artifact.Str("server_over_workstation_gc_triggers"), artifact.Number(r.ServerOverWorkstationGC)},
				{artifact.Str("server_over_workstation_llc_mpki"), artifact.Number(r.ServerOverWorkstationLLC)},
				{artifact.Str("server_speedup"), artifact.Number(r.ServerSpeedup)},
			},
		},
	)
	return a
}

// String renders Fig 14.
func (r *Figure14Result) String() string { return artifact.Text(r.Artifact()) }
