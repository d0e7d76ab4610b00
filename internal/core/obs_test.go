package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestMeasureSuiteObs: an instrumented suite measurement produces one sim
// span per workload (each with prewarm/run/derive children), reports pool
// gauges, and returns measurements identical to an uninstrumented run.
func TestMeasureSuiteObs(t *testing.T) {
	ps := builtin("dotnet").Profiles()[:8]
	m := machine.CoreI9()
	opts := sim.Options{Instructions: 3000}

	ref := measure(t, ps, m, opts, 2)

	tr := obs.New()
	suite := tr.Span("measure", "test-suite")
	o := opts
	o.Obs = suite
	got := measure(t, ps, m, o, 2)
	suite.End()

	if !reflect.DeepEqual(got, ref) {
		t.Fatal("instrumentation changed the measurements")
	}

	var export strings.Builder
	if err := tr.WriteJSONL(&export); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(export.String(), "\n") {
		for _, name := range []string{"sim", "prewarm", "run", "derive"} {
			if strings.Contains(line, `"name":"`+name+`"`) {
				counts[name]++
			}
		}
	}
	for _, name := range []string{"sim", "prewarm", "run", "derive"} {
		if counts[name] != len(ps) {
			t.Errorf("%d %q spans, want %d", counts[name], name, len(ps))
		}
	}
	snap := tr.Snapshot()
	if w, _ := snap["pool.workers"].(float64); w != 2 {
		t.Errorf("pool.workers = %v, want 2", snap["pool.workers"])
	}
	if u, _ := snap["pool.utilization"].(float64); u <= 0 || u > 1 {
		t.Errorf("pool.utilization = %v, want in (0, 1]", snap["pool.utilization"])
	}
	if c, _ := snap["sim.instructions"].(int64); c <= 0 {
		t.Errorf("sim.instructions = %v, want > 0", snap["sim.instructions"])
	}
}

// TestMeasureSuiteCachedWorkers: the workers parameter reaches the pool
// and a warm cache answers without re-measuring.
func TestMeasureSuiteCachedWorkers(t *testing.T) {
	ps := builtin("dotnet").Profiles()[:4]
	m := machine.CoreI9()
	opts := sim.Options{Instructions: 3000}
	cache := &countingCache{}

	first, err := MeasureSuite(context.Background(), cache, ps, m, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := MeasureSuite(context.Background(), cache, ps, m, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cache.puts != 1 || cache.gets != 2 {
		t.Fatalf("cache traffic gets=%d puts=%d, want 2/1", cache.gets, cache.puts)
	}
	if !reflect.DeepEqual(first, warm) {
		t.Fatal("warm result differs from cold result")
	}
}

type countingCache struct {
	gets, puts int
	stored     []Measurement
}

func (c *countingCache) Get(ps []workload.Profile, m *machine.Config, opts sim.Options) ([]Measurement, bool) {
	c.gets++
	if c.stored == nil {
		return nil, false
	}
	return c.stored, true
}

func (c *countingCache) Put(ps []workload.Profile, m *machine.Config, opts sim.Options, ms []Measurement) {
	c.puts++
	c.stored = ms
}

// TestMeasureSuiteWorkersMatchRun: each pool worker reuses one sim.Runner,
// and the results must still equal a fresh sim.Run per workload, with one
// worker (the whole suite on one Runner) and with four. The suite mixes
// managed and native code, single-core workloads on a private L3 and
// 16-core ASP.NET on the shared LLC, and a heap set-up failure.
func TestMeasureSuiteWorkersMatchRun(t *testing.T) {
	var ps []workload.Profile
	ps = append(ps, builtin("dotnet").Profiles()[:2]...)
	ps = append(ps, builtin("aspnet").Profiles()[0])
	ps = append(ps, builtin("spec").Profiles()[:2]...)
	oom, _ := builtin("dotnet").Lookup("System.Collections")
	oom.WorkingSetBytes = 190 << 20
	ps = append(ps, oom)
	ps = append(ps, builtin("dotnet-individual").Profiles()[:2]...)
	ps = append(ps, builtin("aspnet").Profiles()[1])
	ps = append(ps, builtin("spec").Profiles()[2])
	m := machine.CoreI9()
	opts := sim.Options{Instructions: 1500, MaxHeapBytes: 200 << 20}

	want := make([]*sim.Result, len(ps))
	errs := make([]error, len(ps))
	failed := 0
	for i, p := range ps {
		want[i], errs[i] = sim.Run(p, m, opts)
		if errs[i] != nil {
			failed++
		}
	}
	if failed == 0 || failed == len(ps) {
		t.Fatalf("%d of %d workloads failed; the suite needs both outcomes", failed, len(ps))
	}
	for _, workers := range []int{1, 4} {
		for i, got := range measure(t, ps, m, opts, workers) {
			if (got.Err == nil) != (errs[i] == nil) {
				t.Fatalf("workers=%d %s: error %v, sim.Run error %v", workers, ps[i].Name, got.Err, errs[i])
			}
			if !reflect.DeepEqual(got.Result, want[i]) {
				t.Fatalf("workers=%d %s: result differs from sim.Run", workers, ps[i].Name)
			}
		}
	}
}
