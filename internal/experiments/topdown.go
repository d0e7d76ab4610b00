package experiments

import (
	"context"
	"fmt"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topdown"
)

// TopDownRow is one benchmark's Top-Down profile.
type TopDownRow struct {
	Name    string
	Suite   string
	Profile topdown.Profile
}

// Figure9Result reproduces Fig 9: the basic four-way Top-Down profile for
// every benchmark in the three subsets.
type Figure9Result struct {
	Rows []TopDownRow
}

// Figure9 collects basic Top-Down profiles.
func Figure9(ctx context.Context, l *Lab) (*Figure9Result, error) {
	dn, asp, spec, err := l.subsetVectors(ctx)
	if err != nil {
		return nil, err
	}
	out := &Figure9Result{}
	add := func(ms []core.Measurement, suite string) {
		for _, m := range ms {
			if m.Err != nil || m.Result == nil {
				continue
			}
			out.Rows = append(out.Rows, TopDownRow{Name: m.Workload.Name, Suite: suite, Profile: m.Result.Profile})
		}
	}
	add(dn, ".NET")
	add(asp, "ASP.NET")
	add(spec, "SPEC CPU17")
	if len(out.Rows) == 0 {
		return nil, fmt.Errorf("experiments: figure 9 collected no profiles")
	}
	return out, nil
}

// SuiteMeans averages the level-1 categories per suite.
func (r *Figure9Result) SuiteMeans() map[string]topdown.Profile {
	sums := map[string]*topdown.Profile{}
	counts := map[string]int{}
	for _, row := range r.Rows {
		p := sums[row.Suite]
		if p == nil {
			p = &topdown.Profile{}
			sums[row.Suite] = p
		}
		p.Retiring += row.Profile.Retiring
		p.BadSpeculation += row.Profile.BadSpeculation
		p.FrontendBound += row.Profile.FrontendBound
		p.BackendBound += row.Profile.BackendBound
		counts[row.Suite]++
	}
	out := map[string]topdown.Profile{}
	for s, p := range sums {
		n := float64(counts[s])
		out[s] = topdown.Profile{
			Retiring:       p.Retiring / n,
			BadSpeculation: p.BadSpeculation / n,
			FrontendBound:  p.FrontendBound / n,
			BackendBound:   p.BackendBound / n,
		}
	}
	return out
}

// Artifact renders Fig 9: the stacked level-1 profile per benchmark, the
// per-suite means lines, and a hidden means table.
func (r *Figure9Result) Artifact() *artifact.Artifact {
	labels := make([]string, 0, len(r.Rows))
	vals := make([][]float64, 0, len(r.Rows))
	for _, row := range r.Rows {
		labels = append(labels, fmt.Sprintf("%-11s %s", row.Suite, row.Name))
		vals = append(vals, []float64{
			row.Profile.FrontendBound, row.Profile.BadSpeculation,
			row.Profile.BackendBound, row.Profile.Retiring,
		})
	}
	means := r.SuiteMeans()
	var meanLines []string
	var meanRows [][]artifact.Value
	for _, s := range []string{".NET", "ASP.NET", "SPEC CPU17"} {
		m := means[s]
		meanLines = append(meanLines, fmt.Sprintf("  %-11s mean: FE %.1f%%  BS %.1f%%  BE %.1f%%  RET %.1f%%",
			s, m.FrontendBound, m.BadSpeculation, m.BackendBound, m.Retiring))
		meanRows = append(meanRows, []artifact.Value{
			artifact.Str(s),
			artifact.Number(m.FrontendBound), artifact.Number(m.BadSpeculation),
			artifact.Number(m.BackendBound), artifact.Number(m.Retiring),
		})
	}
	a := &artifact.Artifact{Name: "fig9", Title: "Fig 9: basic Top-Down profile", Paper: "Fig. 9"}
	a.Add(
		&artifact.Series{
			Name:     "profile",
			Title:    "Fig 9: basic Top-Down profile",
			Unit:     "%",
			Labels:   labels,
			Segments: []string{"frontend", "bad-spec", "backend", "retiring"},
			Values:   vals,
			Width:    50,
			Stacked:  true,
		},
		&artifact.Note{Name: "means", Lines: meanLines},
		&artifact.Table{
			Name:   "means-data",
			Hidden: true,
			Columns: []artifact.Column{
				{Name: "suite"}, {Name: "frontend", Unit: "%"}, {Name: "bad_speculation", Unit: "%"},
				{Name: "backend", Unit: "%"}, {Name: "retiring", Unit: "%"},
			},
			Rows: meanRows,
		},
	)
	return a
}

// String renders Fig 9.
func (r *Figure9Result) String() string { return artifact.Text(r.Artifact()) }

// Figure10Result reproduces Fig 10: the frontend and backend breakdowns of
// empty pipeline slots.
type Figure10Result struct {
	Rows []TopDownRow
}

// Figure10 reuses the Fig 9 profiles; only the rendering differs (leaf
// breakdowns instead of level-1 categories).
func Figure10(ctx context.Context, l *Lab) (*Figure10Result, error) {
	f9, err := Figure9(ctx, l)
	if err != nil {
		return nil, err
	}
	return &Figure10Result{Rows: f9.Rows}, nil
}

// Artifact renders Fig 10 as two stacked series: frontend and backend
// empty-slot breakdowns.
func (r *Figure10Result) Artifact() *artifact.Artifact {
	labels := make([]string, 0, len(r.Rows))
	feVals := make([][]float64, 0, len(r.Rows))
	beVals := make([][]float64, 0, len(r.Rows))
	for _, row := range r.Rows {
		p := row.Profile
		labels = append(labels, fmt.Sprintf("%-11s %s", row.Suite, row.Name))
		feVals = append(feVals, []float64{
			p.FELatICache, p.FELatITLB, p.FELatResteer, p.FELatMSSwitch, p.FEBwDSB, p.FEBwMITE,
		})
		beVals = append(beVals, []float64{
			p.MemL1, p.MemL2, p.MemL3, p.MemDRAM, p.MemStores, p.CoreDivider, p.CorePortsUtil,
		})
	}
	a := &artifact.Artifact{Name: "fig10", Title: "Fig 10: empty-slot breakdowns", Paper: "Fig. 10"}
	a.Add(
		&artifact.Series{
			Name:     "frontend",
			Title:    "Fig 10 (top): frontend empty-slot breakdown",
			Unit:     "%",
			Labels:   labels,
			Segments: []string{"FE_ICache", "FE_ITLB", "FE_Resteer", "FE_MSSwitch", "FE_DSB", "FE_MITE"},
			Values:   feVals,
			Width:    50,
			Stacked:  true,
		},
		&artifact.Series{
			Name:     "backend",
			Title:    "Fig 10 (bottom): backend empty-slot breakdown",
			Unit:     "%",
			Labels:   labels,
			Segments: []string{"MEM_L1", "MEM_L2", "MEM_L3", "MEM_DRAM", "MEM_Stores", "CR_Divider", "CR_Ports"},
			Values:   beVals,
			Width:    50,
			Stacked:  true,
		},
	)
	return a
}

// String renders Fig 10.
func (r *Figure10Result) String() string { return artifact.Text(r.Artifact()) }

// ScalingPoint is one (benchmark, core count) Top-Down measurement.
type ScalingPoint struct {
	Name    string
	Cores   int
	Profile topdown.Profile
	LLCMPKI float64 // per-core LLC MPKI
	CPI     float64
}

// scalingSweep is the ASP.NET core-count sweep Figs 11 and 12 share.
type scalingSweep struct {
	Points []ScalingPoint
	Sweep  []int
}

// aspNetScaling measures (or returns the memoized) ASP.NET subset sweep
// across the configured core counts. Both Fig 11 and Fig 12 consume it;
// Lab.once guarantees the simulations run at most once per Lab.
func (l *Lab) aspNetScaling(ctx context.Context) (*scalingSweep, error) {
	v, err := l.once(ctx, "aspnet-scaling", func(ctx context.Context) (any, error) {
		span := l.Obs.Span("measure", "aspnet-scaling")
		defer span.End()
		out := &scalingSweep{Sweep: l.Cfg.CoreSweep}
		names := TableIVAspNetSubset
		if len(names) > 4 && l.Cfg.Instructions <= 8000 {
			names = names[:4] // quick mode: a representative half
		}
		ps, err := l.workloads("aspnet", names)
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			for _, cores := range l.Cfg.CoreSweep {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				// Scaling runs need steadier counters than the sweep default:
				// shared-LLC contention is a steady-state effect.
				wspan := span.Child("sim", p.Name)
				res, err := sim.Run(p, machine.CoreI9(), sim.Options{
					Instructions: l.Cfg.Instructions * 3,
					Cores:        cores,
					Obs:          wspan,
				})
				wspan.End()
				if err != nil {
					return nil, fmt.Errorf("experiments: figure 11 %s@%d: %w", p.Name, cores, err)
				}
				out.Points = append(out.Points, ScalingPoint{
					Name:    p.Name,
					Cores:   cores,
					Profile: res.Profile,
					LLCMPKI: res.Counters.MPKI(res.Counters.L3Misses),
					CPI:     res.Counters.CPI(),
				})
			}
		}
		if len(out.Points) == 0 {
			return nil, fmt.Errorf("experiments: figure 11 has no points")
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*scalingSweep), nil
}

// Figure11Result reproduces Fig 11 (with the Fig 12 summary columns the
// combined text table always carried): ASP.NET Top-Down profiles at 1..16
// cores, and the L3-bound share with per-core LLC MPKI.
type Figure11Result struct {
	Points []ScalingPoint
	Sweep  []int
}

// Figure11 sweeps core counts for the ASP.NET subset.
func Figure11(ctx context.Context, l *Lab) (*Figure11Result, error) {
	s, err := l.aspNetScaling(ctx)
	if err != nil {
		return nil, err
	}
	return &Figure11Result{Points: s.Points, Sweep: s.Sweep}, nil
}

// MeanAt aggregates backend-bound and L3-bound shares at one core count.
func (r *Figure11Result) MeanAt(cores int) (backend, l3bound, llcMPKI float64) {
	var be, l3, llc []float64
	for _, p := range r.Points {
		if p.Cores == cores {
			be = append(be, p.Profile.BackendBound)
			l3 = append(l3, p.Profile.MemL3)
			llc = append(llc, p.LLCMPKI)
		}
	}
	return stats.Mean(be), stats.Mean(l3), stats.Mean(llc)
}

// scalingPointsTable is the hidden per-(benchmark, cores) detail table
// Figs 11 and 12 both attach for structured consumers.
func scalingPointsTable(points []ScalingPoint) *artifact.Table {
	rows := make([][]artifact.Value, len(points))
	for i, p := range points {
		rows[i] = []artifact.Value{
			artifact.Str(p.Name),
			artifact.Number(float64(p.Cores)),
			artifact.Number(p.Profile.BackendBound),
			artifact.Number(p.Profile.MemL3),
			artifact.Number(p.LLCMPKI),
			artifact.Number(p.CPI),
		}
	}
	return &artifact.Table{
		Name:   "points-data",
		Hidden: true,
		Columns: []artifact.Column{
			{Name: "benchmark"}, {Name: "cores"}, {Name: "backend_bound", Unit: "%"},
			{Name: "l3_bound", Unit: "%"}, {Name: "llc_mpki_per_core"}, {Name: "cpi"},
		},
		Rows: rows,
	}
}

// Artifact renders Fig 11: the combined scaling table (unchanged from the
// pre-registry rendering, Fig 12 columns included) plus the hidden
// per-point detail.
func (r *Figure11Result) Artifact() *artifact.Artifact {
	var rows [][]artifact.Value
	for _, c := range r.Sweep {
		be, l3, llc := r.MeanAt(c)
		rows = append(rows, []artifact.Value{
			artifact.Num(fmt.Sprintf("%d", c), float64(c)),
			artifact.Num(fmt.Sprintf("%.1f", be), be),
			artifact.Num(fmt.Sprintf("%.2f", l3), l3),
			artifact.Num(fmt.Sprintf("%.3f", llc), llc),
		})
	}
	a := &artifact.Artifact{Name: "fig11", Title: "Fig 11: ASP.NET Top-Down vs core count", Paper: "Fig. 11"}
	a.Add(
		artifact.NoteLine("header", "Fig 11: ASP.NET Top-Down vs core count / Fig 12: L3-bound share"),
		&artifact.Table{
			Name: "scaling",
			Columns: []artifact.Column{
				{Name: "cores"}, {Name: "backend-bound %", Unit: "%"},
				{Name: "L3-bound %", Unit: "%"}, {Name: "per-core LLC MPKI"},
			},
			Rows: rows,
		},
		artifact.NoteLine("reading", "  paper: backend and L3-bound shares grow with cores; per-core LLC MPKI stays stable"),
		scalingPointsTable(r.Points),
	)
	return a
}

// String renders Fig 11 (the combined table Fig 12 summarizes).
func (r *Figure11Result) String() string { return artifact.Text(r.Artifact()) }

// Figure12Result reproduces Fig 12 as its own driver: the L3-bound share
// of backend stalls and the per-core LLC MPKI across the core sweep. It
// shares the Fig 11 sweep measurement through the Lab memo, so running
// both figures simulates the sweep once.
type Figure12Result struct {
	Points []ScalingPoint
	Sweep  []int
}

// Figure12 derives the L3-bound view from the shared scaling sweep.
func Figure12(ctx context.Context, l *Lab) (*Figure12Result, error) {
	s, err := l.aspNetScaling(ctx)
	if err != nil {
		return nil, err
	}
	return &Figure12Result{Points: s.Points, Sweep: s.Sweep}, nil
}

// MeanAt aggregates the L3-bound share and per-core LLC MPKI at one core
// count.
func (r *Figure12Result) MeanAt(cores int) (l3bound, llcMPKI float64) {
	var l3, llc []float64
	for _, p := range r.Points {
		if p.Cores == cores {
			l3 = append(l3, p.Profile.MemL3)
			llc = append(llc, p.LLCMPKI)
		}
	}
	return stats.Mean(l3), stats.Mean(llc)
}

// Artifact renders Fig 12: the L3-bound focus table plus the hidden
// per-point detail shared with Fig 11.
func (r *Figure12Result) Artifact() *artifact.Artifact {
	var rows [][]artifact.Value
	for _, c := range r.Sweep {
		l3, llc := r.MeanAt(c)
		rows = append(rows, []artifact.Value{
			artifact.Num(fmt.Sprintf("%d", c), float64(c)),
			artifact.Num(fmt.Sprintf("%.2f", l3), l3),
			artifact.Num(fmt.Sprintf("%.3f", llc), llc),
		})
	}
	a := &artifact.Artifact{Name: "fig12", Title: "Fig 12: L3-bound share vs core count", Paper: "Fig. 12"}
	a.Add(
		&artifact.Table{
			Name:  "l3bound",
			Title: "Fig 12: L3-bound share and per-core LLC MPKI (ASP.NET subset)",
			Columns: []artifact.Column{
				{Name: "cores"}, {Name: "L3-bound %", Unit: "%"}, {Name: "per-core LLC MPKI"},
			},
			Rows: rows,
		},
		artifact.NoteLine("reading", "  paper: the L3-bound share grows with cores while per-core LLC MPKI stays stable"),
		scalingPointsTable(r.Points),
	)
	return a
}

// String renders Fig 12.
func (r *Figure12Result) String() string { return artifact.Text(r.Artifact()) }
