package core

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Repeated is the multi-run measurement protocol of §III-A: the paper ran
// each .NET microbenchmark 15 times, discarded the first run (warmup), and
// for ASP.NET required steady-state variance below 5%.
type Repeated struct {
	Workload workload.Profile
	Runs     int // measured runs (after the discarded first)

	Mean metrics.Vector
	Std  metrics.Vector

	// CPICoV is the coefficient of variation of CPI across runs — the
	// steady-state criterion.
	CPICoV float64
}

// MeasureRepeated runs the workload runs+1 times with distinct seed salts,
// discards the first run, and aggregates the rest. runs must be >= 2.
func MeasureRepeated(p workload.Profile, m *machine.Config, opts sim.Options, runs int) (*Repeated, error) {
	if runs < 2 {
		return nil, fmt.Errorf("core: repeated measurement needs >= 2 runs, got %d", runs)
	}
	vectors := make([]metrics.Vector, 0, runs)
	var runner sim.Runner
	for i := 0; i <= runs; i++ {
		o := opts
		o.SeedSalt = opts.SeedSalt + uint64(i)*0x9e3779b9
		res, err := runner.Run(p, m, o)
		if err != nil {
			return nil, fmt.Errorf("core: repeated run %d of %s: %w", i, p.Name, err)
		}
		if i == 0 {
			continue // the paper discards the first run
		}
		v, err := perf.Normalize(res)
		if err != nil {
			return nil, err
		}
		vectors = append(vectors, v)
	}

	out := &Repeated{Workload: p, Runs: runs}
	col := make([]float64, len(vectors))
	for j := 0; j < metrics.Count; j++ {
		for i, v := range vectors {
			col[i] = v[j]
		}
		out.Mean[j] = stats.Mean(col)
		out.Std[j] = stats.SampleStdDev(col)
	}
	if cpi := out.Mean[metrics.CPI]; cpi > 0 {
		out.CPICoV = out.Std[metrics.CPI] / cpi
	}
	return out, nil
}

// Steady reports whether the measurement meets the paper's steady-state
// criterion: CPI variance below the given fraction (the paper used 5%).
func (r *Repeated) Steady(maxCoV float64) bool {
	return r.CPICoV <= maxCoV
}
