package experiments

import (
	"context"
	"fmt"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SensitivityRow records whether the headline orderings hold under one
// simulator configuration.
type SensitivityRow struct {
	Config string

	KernelOrdering bool // ASP.NET > .NET > SPEC kernel share
	LLCOrdering    bool // .NET < ASP.NET < SPEC LLC MPKI (GM)
	FEOrdering     bool // managed FE-bound > SPEC FE-bound
	ISideOrdering  bool // ASP.NET L1I MPKI > SPEC L1I MPKI

	KernelGap float64 // ASP.NET - SPEC kernel share (pp)
	LLCRatio  float64 // SPEC / ASP.NET LLC GM
}

// SensitivityResult is the robustness study: the paper's qualitative
// findings re-checked across simulator fidelities and modeling choices.
// A reproduction whose conclusions flip with the knobs would be fragile;
// this one's orderings must hold everywhere.
type SensitivityResult struct {
	Rows []SensitivityRow
}

// sensitivityConfigs enumerates the swept configurations.
func sensitivityConfigs(base uint64) []struct {
	name string
	opts sim.Options
} {
	return []struct {
		name string
		opts sim.Options
	}{
		{"baseline", sim.Options{Instructions: base}},
		{"half-fidelity", sim.Options{Instructions: base / 2}},
		{"double-fidelity", sim.Options{Instructions: base * 2}},
		{"random-replacement", sim.Options{Instructions: base, Policy: mem.Random}},
		{"no-warmup", sim.Options{Instructions: base, DisableWarmup: true}},
		{"alloc-scale-100", sim.Options{Instructions: base, AllocScale: 100}},
		{"alloc-scale-2000", sim.Options{Instructions: base, AllocScale: 2000}},
		{"cold-tail-10pct", sim.Options{Instructions: base, PrecompiledFrac: 0.9}},
	}
}

// Sensitivity runs the robustness sweep over the Table IV subsets, one
// batch per (configuration, suite).
func Sensitivity(ctx context.Context, l *Lab) (*SensitivityResult, error) {
	measureSubset := func(suite string, names []string, opts sim.Options) ([]core.Measurement, error) {
		ps, err := l.workloads(suite, names)
		if err != nil {
			return nil, err
		}
		return l.measureBatch(ctx, "sensitivity/"+suite, ps, machine.CoreI9(), opts)
	}
	out := &SensitivityResult{}
	for _, cfg := range sensitivityConfigs(l.Cfg.Instructions) {
		dms, err := measureSubset("dotnet", TableIVDotNetSubset, cfg.opts)
		if err != nil {
			return nil, err
		}
		ams, err := measureSubset("aspnet", TableIVAspNetSubset, cfg.opts)
		if err != nil {
			return nil, err
		}
		sms, err := measureSubset("spec", TableIVSpecSubset, cfg.opts)
		if err != nil {
			return nil, err
		}

		mean := func(ms []core.Measurement, id metrics.ID) float64 {
			var xs []float64
			for _, mm := range ms {
				if mm.Err == nil {
					xs = append(xs, mm.Vector[id])
				}
			}
			return stats.Mean(xs)
		}
		gm := func(ms []core.Measurement, id metrics.ID, floor float64) float64 {
			var xs []float64
			for _, mm := range ms {
				if mm.Err == nil {
					v := mm.Vector[id]
					if v < floor {
						v = floor
					}
					xs = append(xs, v)
				}
			}
			return stats.GeoMean(xs)
		}
		feMean := func(ms []core.Measurement) float64 {
			var xs []float64
			for _, mm := range ms {
				if mm.Err == nil && mm.Result != nil {
					xs = append(xs, mm.Result.Profile.FrontendBound)
				}
			}
			return stats.Mean(xs)
		}

		kD := mean(dms, metrics.KernelInstructions)
		kA := mean(ams, metrics.KernelInstructions)
		kS := mean(sms, metrics.KernelInstructions)
		llcD := gm(dms, metrics.LLCMPKI, 0.01)
		llcA := gm(ams, metrics.LLCMPKI, 0.01)
		llcS := gm(sms, metrics.LLCMPKI, 0.01)
		l1iA := gm(ams, metrics.L1IMPKI, 0.01)
		l1iS := gm(sms, metrics.L1IMPKI, 0.01)

		row := SensitivityRow{
			Config:         cfg.name,
			KernelOrdering: kA > kD && kD > kS,
			LLCOrdering:    llcD < llcA && llcA < llcS,
			FEOrdering:     feMean(ams) > feMean(sms) && feMean(dms) > feMean(sms),
			ISideOrdering:  l1iA > l1iS,
			KernelGap:      kA - kS,
			LLCRatio:       llcS / llcA,
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Artifact renders the sweep: header plus the holds/FLIPS table.
func (r *SensitivityResult) Artifact() *artifact.Artifact {
	mark := func(ok bool) artifact.Value {
		if ok {
			return artifact.Str("holds")
		}
		return artifact.Str("FLIPS")
	}
	var rows [][]artifact.Value
	for _, row := range r.Rows {
		rows = append(rows, []artifact.Value{
			artifact.Str(row.Config),
			mark(row.KernelOrdering), mark(row.LLCOrdering),
			mark(row.FEOrdering), mark(row.ISideOrdering),
			artifact.Num(fmt.Sprintf("%.1f", row.KernelGap), row.KernelGap),
			artifact.Num(fmt.Sprintf("%.1fx", row.LLCRatio), row.LLCRatio),
		})
	}
	a := &artifact.Artifact{Name: "sensitivity", Title: "Sensitivity: headline orderings across configurations", Paper: "robustness extension"}
	a.Add(
		artifact.NoteLine("header", "Sensitivity: headline orderings across simulator configurations"),
		&artifact.Table{
			Name: "orderings",
			Columns: []artifact.Column{
				{Name: "config"}, {Name: "kernel ordering"}, {Name: "LLC ordering"},
				{Name: "FE ordering"}, {Name: "I-side ordering"},
				{Name: "kernel gap (pp)", Unit: "pp"}, {Name: "SPEC/ASP.NET LLC", Unit: "x"},
			},
			Rows: rows,
		},
	)
	return a
}

// String renders the sweep.
func (r *SensitivityResult) String() string { return artifact.Text(r.Artifact()) }
