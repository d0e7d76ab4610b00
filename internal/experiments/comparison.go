package experiments

import (
	"context"
	"fmt"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// suiteBars is a labeled per-workload series for one metric across the
// three Table IV subsets.
type suiteBars struct {
	Labels []string
	Values []float64
}

// subsetVectors returns Table IV subset measurements for all three suites.
func (l *Lab) subsetVectors(ctx context.Context) (dn, asp, spec []core.Measurement, err error) {
	m := machine.CoreI9()
	cats, err := l.MeasureSuiteByName(ctx, "dotnet", m)
	if err != nil {
		return nil, nil, nil, err
	}
	aspAll, err := l.MeasureSuiteByName(ctx, "aspnet", m)
	if err != nil {
		return nil, nil, nil, err
	}
	specAll, err := l.MeasureSuiteByName(ctx, "spec", m)
	if err != nil {
		return nil, nil, nil, err
	}
	return FilterMeasurements(cats, TableIVDotNetSubset),
		FilterMeasurements(aspAll, TableIVAspNetSubset),
		FilterMeasurements(specAll, TableIVSpecSubset), nil
}

// Figure3Result reproduces Fig 3: the kernel-instruction fraction of each
// benchmark in the three subsets.
type Figure3Result struct {
	DotNet, AspNet, Spec suiteBars
}

// Figure3 collects kernel-instruction shares.
func Figure3(ctx context.Context, l *Lab) (*Figure3Result, error) {
	dn, asp, spec, err := l.subsetVectors(ctx)
	if err != nil {
		return nil, err
	}
	out := &Figure3Result{}
	fill := func(ms []core.Measurement, dst *suiteBars) {
		for _, m := range ms {
			if m.Err != nil {
				continue
			}
			dst.Labels = append(dst.Labels, m.Workload.Name)
			dst.Values = append(dst.Values, m.Vector[metrics.KernelInstructions])
		}
	}
	fill(dn, &out.DotNet)
	fill(asp, &out.AspNet)
	fill(spec, &out.Spec)
	if len(out.DotNet.Values) == 0 || len(out.AspNet.Values) == 0 || len(out.Spec.Values) == 0 {
		return nil, fmt.Errorf("experiments: figure 3 has an empty suite")
	}
	return out, nil
}

// Means returns the per-suite mean kernel shares.
func (r *Figure3Result) Means() (dn, asp, spec float64) {
	return stats.Mean(r.DotNet.Values), stats.Mean(r.AspNet.Values), stats.Mean(r.Spec.Values)
}

// Artifact renders Fig 3: a header, one bar series per suite, the means
// line, and a hidden means table carrying the unrounded values.
func (r *Figure3Result) Artifact() *artifact.Artifact {
	dn, asp, spec := r.Means()
	a := &artifact.Artifact{Name: "fig3", Title: "Fig 3: fraction of kernel instructions", Paper: "Fig. 3"}
	a.Add(
		artifact.NoteLine("header", "Fig 3: fraction of kernel instructions (%)"),
		artifact.Bars("dotnet", ".NET", "%", r.DotNet.Labels, r.DotNet.Values, 40),
		artifact.Bars("aspnet", "ASP.NET", "%", r.AspNet.Labels, r.AspNet.Values, 40),
		artifact.Bars("spec", "SPEC CPU17", "%", r.Spec.Labels, r.Spec.Values, 40),
		artifact.NoteLine("means", fmt.Sprintf("  means: ASP.NET %.1f%% > .NET %.1f%% > SPEC %.1f%%", asp, dn, spec)),
		&artifact.Table{
			Name:    "means-data",
			Hidden:  true,
			Columns: []artifact.Column{{Name: "suite"}, {Name: "mean_kernel_share", Unit: "%"}},
			Rows: [][]artifact.Value{
				{artifact.Str(".NET"), artifact.Number(dn)},
				{artifact.Str("ASP.NET"), artifact.Number(asp)},
				{artifact.Str("SPEC CPU17"), artifact.Number(spec)},
			},
		},
	)
	return a
}

// String renders Fig 3.
func (r *Figure3Result) String() string { return artifact.Text(r.Artifact()) }

// MixRow is one benchmark's instruction-type breakdown (Fig 4).
type MixRow struct {
	Name                       string
	Branch, Load, Store, Other float64
	KernelOfTotal, UserOfTotal float64
	Suite                      string
}

// Figure4Result reproduces Fig 4: instruction-mix breakdown per benchmark,
// plus the geomean loads/stores comparison the paper calls out (SPEC
// 35.2% loads / 11.5% stores vs ~29% / ~16% for the managed suites).
type Figure4Result struct {
	Rows []MixRow

	SpecLoadGM, ManagedLoadGM   float64
	SpecStoreGM, ManagedStoreGM float64
}

// Figure4 collects instruction mixes.
func Figure4(ctx context.Context, l *Lab) (*Figure4Result, error) {
	dn, asp, spec, err := l.subsetVectors(ctx)
	if err != nil {
		return nil, err
	}
	out := &Figure4Result{}
	var specLoads, specStores, managedLoads, managedStores []float64
	add := func(ms []core.Measurement, suite string) {
		for _, m := range ms {
			if m.Err != nil {
				continue
			}
			v := m.Vector
			row := MixRow{
				Name:          m.Workload.Name,
				Suite:         suite,
				Branch:        v[metrics.BranchInstructions],
				Load:          v[metrics.MemoryLoads],
				Store:         v[metrics.MemoryStores],
				KernelOfTotal: v[metrics.KernelInstructions],
				UserOfTotal:   v[metrics.UserInstructions],
			}
			row.Other = 100 - row.Branch - row.Load - row.Store
			out.Rows = append(out.Rows, row)
			if suite == "SPEC CPU17" {
				specLoads = append(specLoads, row.Load)
				specStores = append(specStores, row.Store)
			} else {
				managedLoads = append(managedLoads, row.Load)
				managedStores = append(managedStores, row.Store)
			}
		}
	}
	add(dn, ".NET")
	add(asp, "ASP.NET")
	add(spec, "SPEC CPU17")
	out.SpecLoadGM = stats.GeoMean(specLoads)
	out.ManagedLoadGM = stats.GeoMean(managedLoads)
	out.SpecStoreGM = stats.GeoMean(specStores)
	out.ManagedStoreGM = stats.GeoMean(managedStores)
	return out, nil
}

// Artifact renders Fig 4: the stacked mix series, the geomean callout
// lines, and a hidden geomean table with the unrounded values.
func (r *Figure4Result) Artifact() *artifact.Artifact {
	labels := make([]string, len(r.Rows))
	vals := make([][]float64, len(r.Rows))
	for i, row := range r.Rows {
		labels[i] = fmt.Sprintf("%-11s %s", row.Suite, row.Name)
		vals[i] = []float64{row.Branch, row.Load, row.Store, row.Other}
	}
	a := &artifact.Artifact{Name: "fig4", Title: "Fig 4: instruction-type percentages", Paper: "Fig. 4"}
	a.Add(
		&artifact.Series{
			Name:     "mix",
			Title:    "Fig 4: instruction-type percentages",
			Unit:     "%",
			Labels:   labels,
			Segments: []string{"branch", "load", "store", "other"},
			Values:   vals,
			Width:    50,
			Stacked:  true,
		},
		&artifact.Note{Name: "geomeans", Lines: []string{
			fmt.Sprintf("  loads GM:  SPEC %.1f%% vs managed %.1f%% (paper: 35.2%% vs ~29%%)",
				r.SpecLoadGM, r.ManagedLoadGM),
			fmt.Sprintf("  stores GM: SPEC %.1f%% vs managed %.1f%% (paper: 11.5%% vs ~16%%)",
				r.SpecStoreGM, r.ManagedStoreGM),
		}},
		&artifact.Table{
			Name:    "geomeans-data",
			Hidden:  true,
			Columns: []artifact.Column{{Name: "group"}, {Name: "loads_gm", Unit: "%"}, {Name: "stores_gm", Unit: "%"}},
			Rows: [][]artifact.Value{
				{artifact.Str("SPEC CPU17"), artifact.Number(r.SpecLoadGM), artifact.Number(r.SpecStoreGM)},
				{artifact.Str("managed"), artifact.Number(r.ManagedLoadGM), artifact.Number(r.ManagedStoreGM)},
			},
		},
	)
	return a
}

// String renders Fig 4.
func (r *Figure4Result) String() string { return artifact.Text(r.Artifact()) }

// ScatterCompareResult backs Figs 5 and 6: two suites plotted in shared
// control-flow and memory PCA spaces, with the paper's spread ratios.
type ScatterCompareResult struct {
	Title string
	// Suite A is SPEC in both figures; suite B is .NET (Fig 5) or
	// ASP.NET (Fig 6).
	NameA, NameB string

	ControlA, ControlB [][]float64 // 2-PC coordinates
	MemoryA, MemoryB   [][]float64

	// Spread ratios σ(A)/σ(B) on PC1 of each space (the paper quotes
	// control-flow 5.73x/4.73x and memory 1.71x/1.27x for Figs 5/6).
	ControlSpreadPC1, ControlSpreadPC2 float64
	MemorySpreadPC1, MemorySpreadPC2   float64

	// artName and artPaper identify which figure this result backs in its
	// artifact metadata; set by Figure5/Figure6.
	artName, artPaper string
}

// scatterCompare builds a ScatterCompareResult from two measurement sets.
func scatterCompare(title, nameA, nameB string, a, b []core.Measurement) (*ScatterCompareResult, error) {
	va, _ := core.Vectors(a)
	vb, _ := core.Vectors(b)
	if len(va) < 2 || len(vb) < 2 {
		return nil, fmt.Errorf("experiments: %s needs at least 2 workloads per suite", title)
	}
	out := &ScatterCompareResult{Title: title, NameA: nameA, NameB: nameB}

	for _, grp := range []struct {
		ids        []metrics.ID
		dstA, dstB *[][]float64
		r1, r2     *float64
	}{
		{metrics.ControlFlowIDs(), &out.ControlA, &out.ControlB, &out.ControlSpreadPC1, &out.ControlSpreadPC2},
		{metrics.MemoryIDs(), &out.MemoryA, &out.MemoryB, &out.MemorySpreadPC1, &out.MemorySpreadPC2},
	} {
		all := append(append([]metrics.Vector{}, va...), vb...)
		fit, scores, err := core.GroupPCA(all, grp.ids)
		if err != nil {
			return nil, err
		}
		_ = fit
		*grp.dstA = scores[:len(va)]
		*grp.dstB = scores[len(va):]
		r1, r2, err := core.SpreadRatio(va, vb, grp.ids)
		if err != nil {
			return nil, err
		}
		*grp.r1, *grp.r2 = r1, r2
	}
	return out, nil
}

// Figure5 compares the .NET subset with the SPEC subset (paper: SPEC σ is
// 5.73x in control flow, 1.71x in memory behavior).
func Figure5(ctx context.Context, l *Lab) (*ScatterCompareResult, error) {
	dn, _, spec, err := l.subsetVectors(ctx)
	if err != nil {
		return nil, err
	}
	r, err := scatterCompare("Fig 5: .NET vs SPEC CPU17", "SPEC CPU17", ".NET", spec, dn)
	if err != nil {
		return nil, err
	}
	r.artName, r.artPaper = "fig5", "Fig. 5"
	return r, nil
}

// Figure6 compares the ASP.NET subset with the SPEC subset (paper: SPEC σ
// is 4.73x in control flow, 1.27x in memory behavior).
func Figure6(ctx context.Context, l *Lab) (*ScatterCompareResult, error) {
	_, asp, spec, err := l.subsetVectors(ctx)
	if err != nil {
		return nil, err
	}
	r, err := scatterCompare("Fig 6: ASP.NET vs SPEC CPU17", "SPEC CPU17", "ASP.NET", spec, asp)
	if err != nil {
		return nil, err
	}
	r.artName, r.artPaper = "fig6", "Fig. 6"
	return r, nil
}

// Artifact renders the scatter comparison: a header, the two PCA scatter
// plots with their spread-ratio lines, and a hidden ratio table.
func (r *ScatterCompareResult) Artifact() *artifact.Artifact {
	group := func(name, glyph string, pts [][]float64) artifact.ScatterGroup {
		g := artifact.ScatterGroup{Name: name, Glyph: glyph, Points: make([][2]float64, len(pts))}
		for i, p := range pts {
			g.Points[i] = [2]float64{p[0], p[1]}
		}
		return g
	}
	a := &artifact.Artifact{Name: r.artName, Title: r.Title, Paper: r.artPaper}
	a.Add(
		artifact.NoteLine("header", fmt.Sprintf("%s  (glyph S = %s, glyph m = %s)", r.Title, r.NameA, r.NameB)),
		&artifact.Scatter{
			Name: "control-flow", Title: "  control-flow PCA", Rows: 14, Cols: 56,
			Groups: []artifact.ScatterGroup{
				group(r.NameA, "S", r.ControlA),
				group(r.NameB, "m", r.ControlB),
			},
		},
		artifact.NoteLine("control-flow-spread",
			fmt.Sprintf("  control-flow spread ratio (PC1, PC2): %.2fx, %.2fx", r.ControlSpreadPC1, r.ControlSpreadPC2)),
		&artifact.Scatter{
			Name: "memory", Title: "  memory PCA", Rows: 14, Cols: 56,
			Groups: []artifact.ScatterGroup{
				group(r.NameA, "S", r.MemoryA),
				group(r.NameB, "m", r.MemoryB),
			},
		},
		artifact.NoteLine("memory-spread",
			fmt.Sprintf("  memory spread ratio (PC1, PC2): %.2fx, %.2fx", r.MemorySpreadPC1, r.MemorySpreadPC2)),
		&artifact.Table{
			Name:    "spread-ratios",
			Hidden:  true,
			Columns: []artifact.Column{{Name: "space"}, {Name: "pc1", Unit: "x"}, {Name: "pc2", Unit: "x"}},
			Rows: [][]artifact.Value{
				{artifact.Str("control-flow"), artifact.Number(r.ControlSpreadPC1), artifact.Number(r.ControlSpreadPC2)},
				{artifact.Str("memory"), artifact.Number(r.MemorySpreadPC1), artifact.Number(r.MemorySpreadPC2)},
			},
		},
	)
	return a
}

// String renders the scatter comparison.
func (r *ScatterCompareResult) String() string { return artifact.Text(r.Artifact()) }

// Figure7Result reproduces Fig 7: the .NET subset measured on x86-64 vs
// AArch64, compared in control-flow, memory and runtime-event PCA spaces,
// plus the §V-D raw-ratio headline (Arm ~80x I-TLB MPKI, ~8x LLC MPKI).
type Figure7Result struct {
	ControlSpreadPC1, ControlSpreadPC2 float64 // σ(Arm)/σ(x86), paper 1.36/1.20
	MemorySpreadPC1, MemorySpreadPC2   float64 // paper 1.19/2.32
	RuntimeSpreadPC1, RuntimeSpreadPC2 float64 // paper 1.02/0.58

	ITLBRatio float64 // GM(Arm)/GM(x86), paper ~80x
	LLCRatio  float64 // paper ~8x
}

// Figure7 measures the .NET subset on both ISAs.
func Figure7(ctx context.Context, l *Lab) (*Figure7Result, error) {
	x86Cats, err := l.MeasureSuiteByName(ctx, "dotnet", machine.CoreI9())
	if err != nil {
		return nil, err
	}
	armCats, err := l.MeasureSuiteByName(ctx, "dotnet", machine.Arm())
	if err != nil {
		return nil, err
	}
	x86 := FilterMeasurements(x86Cats, TableIVDotNetSubset)
	arm := FilterMeasurements(armCats, TableIVDotNetSubset)
	vx, _ := core.Vectors(x86)
	va, _ := core.Vectors(arm)
	if len(vx) < 2 || len(va) < 2 {
		return nil, fmt.Errorf("experiments: figure 7 needs both ISA measurements")
	}
	out := &Figure7Result{}
	if out.ControlSpreadPC1, out.ControlSpreadPC2, err = core.SpreadRatio(va, vx, metrics.ControlFlowIDs()); err != nil {
		return nil, err
	}
	if out.MemorySpreadPC1, out.MemorySpreadPC2, err = core.SpreadRatio(va, vx, metrics.MemoryIDs()); err != nil {
		return nil, err
	}
	if out.RuntimeSpreadPC1, out.RuntimeSpreadPC2, err = core.SpreadRatio(va, vx, metrics.RuntimeIDs()); err != nil {
		return nil, err
	}
	// Floor each value at the measurement-noise level before the geomean:
	// several x86 subset categories measure 0 for these counters, and a
	// ratio against zero is meaningless.
	gm := func(vs []metrics.Vector, id metrics.ID, floor float64) float64 {
		xs := make([]float64, len(vs))
		for i, v := range vs {
			xs[i] = v[id]
			if xs[i] < floor {
				xs[i] = floor
			}
		}
		return stats.GeoMean(xs)
	}
	out.ITLBRatio = gm(va, metrics.ITLBMPKI, 0.005) / gm(vx, metrics.ITLBMPKI, 0.005)
	out.LLCRatio = gm(va, metrics.LLCMPKI, 0.01) / gm(vx, metrics.LLCMPKI, 0.01)
	return out, nil
}

// Artifact renders Fig 7: the prose comparison plus a hidden table with
// every ratio unrounded.
func (r *Figure7Result) Artifact() *artifact.Artifact {
	a := &artifact.Artifact{Name: "fig7", Title: "Fig 7: x86-64 vs AArch64 (.NET subset)", Paper: "Fig. 7"}
	a.Add(
		&artifact.Note{Name: "summary", Lines: []string{
			"Fig 7: x86-64 vs AArch64 (.NET subset); ratios are Arm/x86",
			fmt.Sprintf("  control-flow spread: PC1 %.2fx, PC2 %.2fx (paper: 1.36x, 1.20x)", r.ControlSpreadPC1, r.ControlSpreadPC2),
			fmt.Sprintf("  memory spread:       PC1 %.2fx, PC2 %.2fx (paper: 1.19x, 2.32x)", r.MemorySpreadPC1, r.MemorySpreadPC2),
			fmt.Sprintf("  runtime spread:      PC1 %.2fx, PC2 %.2fx (paper: 1.02x, 0.58x)", r.RuntimeSpreadPC1, r.RuntimeSpreadPC2),
			fmt.Sprintf("  raw GM ratios:       I-TLB MPKI %.1fx (paper ~80x), LLC MPKI %.1fx (paper ~8x)", r.ITLBRatio, r.LLCRatio),
		}},
		&artifact.Table{
			Name:    "ratios-data",
			Hidden:  true,
			Columns: []artifact.Column{{Name: "comparison"}, {Name: "value", Unit: "x"}},
			Rows: [][]artifact.Value{
				{artifact.Str("control_spread_pc1"), artifact.Number(r.ControlSpreadPC1)},
				{artifact.Str("control_spread_pc2"), artifact.Number(r.ControlSpreadPC2)},
				{artifact.Str("memory_spread_pc1"), artifact.Number(r.MemorySpreadPC1)},
				{artifact.Str("memory_spread_pc2"), artifact.Number(r.MemorySpreadPC2)},
				{artifact.Str("runtime_spread_pc1"), artifact.Number(r.RuntimeSpreadPC1)},
				{artifact.Str("runtime_spread_pc2"), artifact.Number(r.RuntimeSpreadPC2)},
				{artifact.Str("itlb_mpki_gm"), artifact.Number(r.ITLBRatio)},
				{artifact.Str("llc_mpki_gm"), artifact.Number(r.LLCRatio)},
			},
		},
	)
	return a
}

// String renders Fig 7.
func (r *Figure7Result) String() string { return artifact.Text(r.Artifact()) }

// Figure8Result reproduces Fig 8: raw performance-counter comparisons with
// the paper's headline geomeans.
type Figure8Result struct {
	// Per-suite geomeans for each plotted counter.
	Metrics []metrics.ID
	GM      map[string]map[metrics.ID]float64 // suite -> metric -> GM
	Rows    map[string][]core.Measurement
}

// figure8Metrics are the counters Fig 8 plots.
func figure8Metrics() []metrics.ID {
	return []metrics.ID{
		metrics.ITLBMPKI, metrics.L1IMPKI, metrics.BranchMPKI, metrics.CPI,
		metrics.L1DMPKI, metrics.L2MPKI, metrics.LLCMPKI,
	}
}

// Figure8 collects the counter comparison.
func Figure8(ctx context.Context, l *Lab) (*Figure8Result, error) {
	dn, asp, spec, err := l.subsetVectors(ctx)
	if err != nil {
		return nil, err
	}
	out := &Figure8Result{
		Metrics: figure8Metrics(),
		GM:      map[string]map[metrics.ID]float64{},
		Rows:    map[string][]core.Measurement{".NET": dn, "ASP.NET": asp, "SPEC CPU17": spec},
	}
	for suite, ms := range out.Rows {
		vs, _ := core.Vectors(ms)
		gms := map[metrics.ID]float64{}
		for _, id := range out.Metrics {
			xs := make([]float64, len(vs))
			for i, v := range vs {
				xs[i] = v[id]
			}
			gms[id] = stats.GeoMean(xs)
		}
		out.GM[suite] = gms
	}
	return out, nil
}

// Artifact renders Fig 8 geomeans as a table whose numeric cells carry
// both the %.3g text rendering and the unrounded value.
func (r *Figure8Result) Artifact() *artifact.Artifact {
	notes := map[metrics.ID]string{
		metrics.L1DMPKI: "15.9 vs 29",
		metrics.L2MPKI:  "20.4 vs 11",
		metrics.LLCMPKI: "0.16 vs 0.98",
	}
	gm := func(suite string, id metrics.ID) artifact.Value {
		v := r.GM[suite][id]
		return artifact.Num(fmt.Sprintf("%.3g", v), v)
	}
	var rows [][]artifact.Value
	for _, id := range r.Metrics {
		rows = append(rows, []artifact.Value{
			artifact.Str(id.Name()),
			gm(".NET", id), gm("ASP.NET", id), gm("SPEC CPU17", id),
			artifact.Str(notes[id]),
		})
	}
	a := &artifact.Artifact{Name: "fig8", Title: "Fig 8: performance-counter geomeans (x86-64)", Paper: "Fig. 8"}
	a.Add(&artifact.Table{
		Name:  "geomeans",
		Title: "Fig 8: performance-counter geomeans (x86-64)",
		Columns: []artifact.Column{
			{Name: "metric"}, {Name: ".NET"}, {Name: "ASP.NET"}, {Name: "SPEC CPU17"},
			{Name: "paper (ASP.NET vs SPEC)"},
		},
		Rows: rows,
	})
	return a
}

// String renders Fig 8 geomeans.
func (r *Figure8Result) String() string { return artifact.Text(r.Artifact()) }
