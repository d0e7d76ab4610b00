package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/subset"
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

// measure runs MeasureSuite uncached under a background context, which
// cannot fail.
func measure(t *testing.T, ps []workload.Profile, m *machine.Config, opts sim.Options, workers int) []Measurement {
	t.Helper()
	ms, err := MeasureSuite(context.Background(), nil, ps, m, opts, workers)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// measureCats measures the first n .NET categories at low fidelity.
func measureCats(t *testing.T, n int) []Measurement {
	t.Helper()
	cats := builtin("dotnet").Profiles()
	if n > len(cats) {
		n = len(cats)
	}
	ms := measure(t, cats[:n], machine.CoreI9(), sim.Options{Instructions: 8000}, 0)
	for _, m := range ms {
		if m.Err != nil {
			t.Fatalf("%s failed: %v", m.Workload.Name, m.Err)
		}
	}
	return ms
}

func TestMeasureSuiteOrderAndDeterminism(t *testing.T) {
	a := measureCats(t, 6)
	b := measureCats(t, 6)
	for i := range a {
		if a[i].Workload.Name != b[i].Workload.Name {
			t.Fatal("measurement order not stable")
		}
		if a[i].Vector != b[i].Vector {
			t.Fatalf("%s: vectors differ across runs", a[i].Workload.Name)
		}
	}
}

func TestMeasureSuiteCapturesErrors(t *testing.T) {
	p, _ := builtin("dotnet").Lookup("System.Collections")
	p.WorkingSetBytes = 190 << 20
	ms := measure(t, []workload.Profile{p}, machine.CoreI9(),
		sim.Options{Instructions: 1000, MaxHeapBytes: 200 << 20}, 0)
	if ms[0].Err == nil {
		t.Fatal("expected OOM error to be captured")
	}
	vs, idx := Vectors(ms)
	if len(vs) != 0 || len(idx) != 0 {
		t.Fatal("failed measurement leaked into vectors")
	}
}

func TestCharacterizePipeline(t *testing.T) {
	ms := measureCats(t, 10)
	ch, err := Characterize(ms, 4, cluster.Average)
	if err != nil {
		t.Fatal(err)
	}
	if ch.TopPCs != 4 || len(ch.Features) != 10 || len(ch.Features[0]) != 4 {
		t.Fatalf("feature shape %dx%d", len(ch.Features), len(ch.Features[0]))
	}
	// The top four PCs must explain a dominant share of variance (paper: 79%).
	if cum := ch.PCA.CumulativeVariance(4); cum < 0.5 {
		t.Fatalf("top-4 PC variance %v too low", cum)
	}
	sub := ch.Subset(3)
	if len(sub) != 3 {
		t.Fatalf("subset size %d", len(sub))
	}
	names := ch.SubsetNames(sub)
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" || seen[n] {
			t.Fatalf("bad subset names %v", names)
		}
		seen[n] = true
	}
	clusters := ch.Clusters(3)
	if len(clusters) != 3 {
		t.Fatalf("clusters %v", clusters)
	}
}

func TestCharacterizeErrors(t *testing.T) {
	if _, err := Characterize(nil, 4, cluster.Average); err == nil {
		t.Fatal("empty measurements accepted")
	}
}

func TestGroupPCA(t *testing.T) {
	ms := measureCats(t, 8)
	vs, _ := Vectors(ms)
	fit, scores, err := GroupPCA(vs, metrics.MemoryIDs())
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 8 || len(scores[0]) != 2 {
		t.Fatalf("scores shape %dx%d", len(scores), len(scores[0]))
	}
	if len(fit.Components[0]) != len(metrics.MemoryIDs()) {
		t.Fatal("group PCA dimensionality wrong")
	}
}

func TestSpreadRatioSPECWider(t *testing.T) {
	// §V-C: SPEC's control-flow spread exceeds the managed suites'.
	specMs := measure(t, builtin("spec").Profiles()[:10], machine.CoreI9(), sim.Options{Instructions: 8000}, 0)
	dnMs := measureCats(t, 10)
	specVs, _ := Vectors(specMs)
	dnVs, _ := Vectors(dnMs)
	r1, _, err := SpreadRatio(specVs, dnVs, metrics.ControlFlowIDs())
	if err != nil {
		t.Fatal(err)
	}
	if r1 <= 1 {
		t.Fatalf("SPEC control-flow spread ratio %v should exceed 1 (paper: 5.73x)", r1)
	}
}

func TestExecutionTimesAndValidationFlow(t *testing.T) {
	// End-to-end §IV-C: measure on two machines, validate a subset.
	cats := builtin("dotnet").Profiles()[:8]
	opts := sim.Options{Instructions: 6000}
	base := measure(t, cats, machine.XeonE5(), opts, 0)
	fast := measure(t, cats, machine.CoreI9(), opts, 0)
	bt := ExecutionTimes(base)
	ft := ExecutionTimes(fast)
	scores, err := subset.Scores(bt, ft)
	if err != nil {
		t.Fatal(err)
	}
	// The i9 runs at a higher clock than the Xeon: the composite score
	// must favor it. (Individual scores can dip below 1 at this tiny
	// fidelity when a JIT churn event lands inside one machine's window
	// but not the other's.)
	if comp := subset.Composite(scores); comp <= 1 {
		t.Fatalf("composite %v; the i9 should beat the Xeon overall", comp)
	}
	for i, s := range scores {
		if s <= 0.3 {
			t.Fatalf("score %d = %v implausibly low", i, s)
		}
	}
	v := subset.Validate("test", scores, []int{0, 2, 4, 6})
	if v.AccuracyFraction <= 0.5 {
		t.Fatalf("even a naive half subset should be reasonably accurate, got %v", v.AccuracyFraction)
	}
}

func TestMeasureRepeated(t *testing.T) {
	p, _ := builtin("dotnet").Lookup("System.Runtime")
	rep, err := MeasureRepeated(p, machine.CoreI9(), sim.Options{Instructions: 40000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 4 {
		t.Fatalf("runs = %d", rep.Runs)
	}
	if rep.Mean[metrics.CPI] <= 0 {
		t.Fatal("mean CPI must be positive")
	}
	// Distinct seeds produce nonzero-but-small run-to-run variation: the
	// paper's steady-state criterion (variance < 5%) should hold for a
	// warmed microbenchmark.
	if rep.Std[metrics.CPI] == 0 {
		t.Fatal("distinct seeds should produce some variation")
	}
	// The paper's criterion is <5% over multi-second runs; at this
	// simulation window a single JIT churn event is a visible lump, so
	// the acceptance bound is slightly wider.
	if !rep.Steady(0.08) {
		t.Fatalf("CPI CoV %.4f far exceeds the steady-state criterion", rep.CPICoV)
	}
	if _, err := MeasureRepeated(p, machine.CoreI9(), sim.Options{}, 1); err == nil {
		t.Fatal("runs < 2 should be rejected")
	}
}

func TestMeasureRepeatedPropagatesErrors(t *testing.T) {
	p, _ := builtin("dotnet").Lookup("System.Collections")
	p.WorkingSetBytes = 190 << 20
	_, err := MeasureRepeated(p, machine.CoreI9(), sim.Options{Instructions: 1000, MaxHeapBytes: 200 << 20}, 3)
	if err == nil {
		t.Fatal("OOM should propagate")
	}
}

// fakeCache records Put calls for the cancellation tests.
type fakeCache struct{ puts int }

func (c *fakeCache) Get([]workload.Profile, *machine.Config, sim.Options) ([]Measurement, bool) {
	return nil, false
}

func (c *fakeCache) Put(_ []workload.Profile, _ *machine.Config, _ sim.Options, _ []Measurement) {
	c.puts++
}

// TestMeasureSuiteCtxPreCancelled: a context that is already cancelled
// must yield no measurements, the context error, and no cache write.
func TestMeasureSuiteCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cache := &fakeCache{}
	ms, err := MeasureSuite(ctx, cache, builtin("dotnet").Profiles()[:4],
		machine.CoreI9(), sim.Options{Instructions: 2000}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ms != nil {
		t.Fatalf("cancelled suite returned %d measurements; partial results must be discarded", len(ms))
	}
	if cache.puts != 0 {
		t.Fatalf("cancelled suite wrote %d cache entries; want 0", cache.puts)
	}
}

// TestMeasureSuiteCtxBackground: a live cancellable context that is
// never cancelled yields exactly the measurements of an uncancellable
// background context; the per-workload cancellation checks do not
// perturb results.
func TestMeasureSuiteCtxBackground(t *testing.T) {
	ps := builtin("dotnet").Profiles()[:4]
	m := machine.CoreI9()
	opts := sim.Options{Instructions: 2000}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := MeasureSuite(ctx, nil, ps, m, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := measure(t, ps, m, opts, 2)
	if len(got) != len(want) {
		t.Fatalf("got %d measurements, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Vector != want[i].Vector {
			t.Fatalf("%s: live and background contexts diverge", got[i].Workload.Name)
		}
	}
}
