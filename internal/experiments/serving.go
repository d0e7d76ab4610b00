package experiments

import (
	"context"
	"fmt"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// SuiteNames lists every suite this Lab can measure by wire name, in
// registration order (built-ins first). These are the values a serving
// request's "suite" field accepts.
func (l *Lab) SuiteNames() []string {
	return l.registry().Names()
}

// Suites returns the Lab's registered suite definitions in registration
// order.
func (l *Lab) Suites() []*workload.SuiteDef {
	return l.registry().Suites()
}

// Suite resolves one of the Lab's suites by wire name.
func (l *Lab) Suite(wire string) (*workload.SuiteDef, bool) {
	return l.registry().Lookup(wire)
}

// externalSuites lists the registered non-built-in suites that take part
// in the characterization drivers (table3/table4/fig1/fig2). Sampled
// suites are excluded — they are measurement pools, not
// characterization sets, exactly like the built-in individual-.NET pool.
func (l *Lab) externalSuites() []*workload.SuiteDef {
	var out []*workload.SuiteDef
	for _, def := range l.registry().Suites() {
		if !def.Builtin && !def.Measurement.Sampled {
			out = append(out, def)
		}
	}
	return out
}

// MeasureSuiteByName measures a wire-named suite through the registry,
// sharing the Lab's per-key singleflight and caches, so concurrent
// identical serving requests coalesce into one measurement.
func (l *Lab) MeasureSuiteByName(ctx context.Context, suite string, m *machine.Config) ([]core.Measurement, error) {
	def, err := l.lookup(suite)
	if err != nil {
		return nil, err
	}
	return l.MeasureSuite(ctx, def, m)
}

// lookup resolves a wire-named suite through the registry.
func (l *Lab) lookup(suite string) (*workload.SuiteDef, error) {
	def, ok := l.registry().Lookup(suite)
	if !ok {
		return nil, fmt.Errorf("unknown suite %q (want one of %v)", suite, l.SuiteNames())
	}
	return def, nil
}

// FilterMeasurements returns the measurements for the named workloads, in
// the given order, skipping names the suite does not contain: the Table
// IV drivers' subset selection, and serving requests that ask for
// specific workloads.
func FilterMeasurements(ms []core.Measurement, names []string) []core.Measurement {
	// Map names to indices: copying every measurement of a suite into the
	// map would cost more than the handful the filter keeps.
	byName := make(map[string]int, len(ms))
	for i := range ms {
		byName[ms[i].Workload.Name] = i
	}
	out := make([]core.Measurement, 0, len(names))
	for _, n := range names {
		if i, ok := byName[n]; ok {
			out = append(out, ms[i])
		}
	}
	return out
}

// MeasureArtifact renders measurements as a typed artifact: one table of
// the 24 Table I metrics per workload, plus an error column for
// workloads whose simulation failed (their metric cells are null). It is
// the one output of a suite measurement, shared by `charnet export` and
// charnetd's POST /v1/measure.
func MeasureArtifact(suite string, m *machine.Config, ms []core.Measurement) *artifact.Artifact {
	a := &artifact.Artifact{
		Name:  "measure",
		Title: fmt.Sprintf("suite %s on %s (%d workloads)", suite, m.Name, len(ms)),
		Paper: "serving",
	}
	ids := metrics.All()
	cols := make([]artifact.Column, 0, len(ids)+2)
	cols = append(cols, artifact.Column{Name: "workload"})
	for _, id := range ids {
		cols = append(cols, artifact.Column{Name: id.Name(), Unit: id.Unit()})
	}
	cols = append(cols, artifact.Column{Name: "error"})
	t := &artifact.Table{Name: "measurements", Title: "measured metric vectors", Columns: cols}
	for _, mm := range ms {
		row := make([]artifact.Value, 0, len(cols))
		row = append(row, artifact.Str(mm.Workload.Name))
		for _, id := range ids {
			if mm.Err != nil {
				row = append(row, artifact.Str(""))
			} else {
				row = append(row, artifact.Number(mm.Vector[id]))
			}
		}
		if mm.Err != nil {
			row = append(row, artifact.Str(mm.Err.Error()))
		} else {
			row = append(row, artifact.Str(""))
		}
		t.Rows = append(t.Rows, row)
	}
	a.Add(t)
	return a
}
