package experiments

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/artifact"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
)

// AssistDelta quantifies one §VIII proposal against the baseline for one
// workload: relative change in the counters the proposal targets.
type AssistDelta struct {
	Workload string
	Assist   string

	CPIRatio     float64 // assisted / baseline (lower is better)
	L1IRatio     float64
	ITLBRatio    float64
	BTBMissRatio float64
	LLCRatio     float64
	InstrRatio   float64
}

// ExtensionsResult is the what-if study of the paper's §VIII hardware
// proposals: each assist is evaluated on the workloads whose bottleneck
// it targets.
type ExtensionsResult struct {
	Deltas []AssistDelta
	// Mean CPI improvement per assist (baseline/assisted, >1 = speedup).
	Speedup map[string]float64
}

// assistCase pairs one proposal with the run configuration that exposes
// the bottleneck it addresses.
type assistCase struct {
	name      string
	assist    sim.HWAssist
	workloads []string
	suite     string // wire name
	opts      func(base sim.Options) sim.Options
}

func extensionCases() []assistCase {
	return []assistCase{
		{
			name:      "jit-code-prefetch",
			assist:    sim.HWAssist{JITCodePrefetch: true},
			workloads: []string{"Json", "Plaintext"},
			suite:     "aspnet",
			opts: func(b sim.Options) sim.Options {
				// Cold process: compilations abound, cold-start misses
				// dominate — the scenario §VII-A1 analyzes.
				b.PrecompiledFrac = -1
				b.DisableWarmup = true
				b.Cores = 2
				return b
			},
		},
		{
			name:      "predictor-transform",
			assist:    sim.HWAssist{PredictorTransform: true},
			workloads: []string{"Json", "Plaintext"},
			suite:     "aspnet",
			opts: func(b sim.Options) sim.Options {
				b.PrecompiledFrac = -1
				b.DisableWarmup = true
				b.TierUpCalls = 2 // aggressive tier-up: heavy relocation churn
				b.Cores = 2
				return b
			},
		},
		{
			name:      "gc-offload",
			assist:    sim.HWAssist{GCOffload: true},
			workloads: []string{"System.Collections", "System.Linq"},
			suite:     "dotnet",
			opts: func(b sim.Options) sim.Options {
				b.MaxHeapBytes = 200 << 20
				b.AllocScale = 3000
				return b
			},
		},
		{
			name:      "hugepage-code",
			assist:    sim.HWAssist{HugePageCode: true},
			workloads: []string{"CscBench", "Roslyn"},
			suite:     "dotnet",
			opts: func(b sim.Options) sim.Options {
				// The assist matters most where code is sparse; evaluated
				// on the large-footprint compiler categories.
				return b
			},
		},
		{
			name:      "hashed-slice-placement",
			assist:    sim.HWAssist{HashedSlicePlacement: true},
			workloads: []string{"DbFortunesRaw", "MvcDbFortunesRaw"},
			suite:     "aspnet",
			opts: func(b sim.Options) sim.Options {
				b.Cores = 16
				return b
			},
		},
	}
}

// Extensions runs the §VIII what-if studies: per case, a baseline and an
// assisted batch over the case's workloads.
func Extensions(ctx context.Context, l *Lab) (*ExtensionsResult, error) {
	out := &ExtensionsResult{Speedup: map[string]float64{}}
	m := machine.CoreI9()
	perAssist := map[string][]float64{}
	for _, c := range extensionCases() {
		ps, err := l.workloads(c.suite, c.workloads)
		if err != nil {
			return nil, err
		}
		base := c.opts(sim.Options{Instructions: l.Cfg.Instructions * 4})
		baseMs, err := l.measureBatch(ctx, "extensions/"+c.suite, ps, m, base)
		if err != nil {
			return nil, err
		}
		withAssist := base
		withAssist.Assist = c.assist
		aMs, err := l.measureBatch(ctx, "extensions/"+c.suite, ps, m, withAssist)
		if err != nil {
			return nil, err
		}
		for i, p := range ps {
			if err := baseMs[i].Err; err != nil {
				return nil, fmt.Errorf("experiments: extensions baseline %s/%s: %w", c.name, p.Name, err)
			}
			if err := aMs[i].Err; err != nil {
				return nil, fmt.Errorf("experiments: extensions assisted %s/%s: %w", c.name, p.Name, err)
			}
			b, a := &baseMs[i].Result.Counters, &aMs[i].Result.Counters
			d := AssistDelta{
				Workload:     p.Name,
				Assist:       c.name,
				CPIRatio:     ratio(a.CPI(), b.CPI()),
				L1IRatio:     ratio(a.MPKI(a.L1IMisses), b.MPKI(b.L1IMisses)),
				ITLBRatio:    ratio(a.MPKI(a.ITLBMisses), b.MPKI(b.ITLBMisses)),
				BTBMissRatio: ratio(float64(a.BTBMisses), float64(b.BTBMisses)),
				LLCRatio:     ratio(a.MPKI(a.L3Misses), b.MPKI(b.L3Misses)),
				InstrRatio:   ratio(float64(a.Instructions), float64(b.Instructions)),
			}
			out.Deltas = append(out.Deltas, d)
			if d.CPIRatio > 0 {
				perAssist[c.name] = append(perAssist[c.name], 1/d.CPIRatio)
			}
		}
	}
	for name, xs := range perAssist {
		out.Speedup[name] = stats.GeoMean(xs)
	}
	return out, nil
}

// Artifact renders the extension study: headers, the ratio table, the
// per-assist speedup lines, and a hidden speedup table.
func (r *ExtensionsResult) Artifact() *artifact.Artifact {
	ratioCell := func(v float64) artifact.Value { return artifact.Num(fmt.Sprintf("%.3f", v), v) }
	var rows [][]artifact.Value
	for _, d := range r.Deltas {
		rows = append(rows, []artifact.Value{
			artifact.Str(d.Assist), artifact.Str(d.Workload),
			ratioCell(d.CPIRatio), ratioCell(d.L1IRatio), ratioCell(d.ITLBRatio),
			ratioCell(d.BTBMissRatio), ratioCell(d.LLCRatio), ratioCell(d.InstrRatio),
		})
	}
	names := make([]string, 0, len(r.Speedup))
	for name := range r.Speedup {
		names = append(names, name)
	}
	sort.Strings(names)
	var speedupLines []string
	var speedupRows [][]artifact.Value
	for _, name := range names {
		speedupLines = append(speedupLines, fmt.Sprintf("  %-24s mean speedup %.3fx", name, r.Speedup[name]))
		speedupRows = append(speedupRows, []artifact.Value{artifact.Str(name), artifact.Number(r.Speedup[name])})
	}
	a := &artifact.Artifact{Name: "extensions", Title: "Extensions: §VIII hardware proposals, quantified", Paper: "§VIII"}
	a.Add(
		&artifact.Note{Name: "header", Lines: []string{
			"Extensions: the paper's §VIII cross-stack hardware proposals, quantified",
			"(ratios are assisted/baseline; < 1 means the assist helps)",
		}},
		&artifact.Table{
			Name: "ratios",
			Columns: []artifact.Column{
				{Name: "assist"}, {Name: "workload"}, {Name: "CPI"}, {Name: "L1I MPKI"},
				{Name: "I-TLB MPKI"}, {Name: "BTB misses"}, {Name: "LLC MPKI"}, {Name: "instructions"},
			},
			Rows: rows,
		},
		&artifact.Note{Name: "speedups", Lines: speedupLines},
		&artifact.Table{
			Name:    "speedups-data",
			Hidden:  true,
			Columns: []artifact.Column{{Name: "assist"}, {Name: "mean_speedup", Unit: "x"}},
			Rows:    speedupRows,
		},
	)
	return a
}

// String renders the extension study.
func (r *ExtensionsResult) String() string { return artifact.Text(r.Artifact()) }
