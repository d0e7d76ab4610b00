package experiments

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mstore"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// countingCache wraps the store interface and counts misses (Put calls),
// to observe how many times the Lab actually measured.
type countingCache struct {
	puts atomic.Int64
}

func (c *countingCache) Get([]workload.Profile, *machine.Config, sim.Options) ([]core.Measurement, bool) {
	return nil, false
}

func (c *countingCache) Put(_ []workload.Profile, _ *machine.Config, _ sim.Options, _ []core.Measurement) {
	c.puts.Add(1)
}

// TestMeasureSingleflight drives many concurrent drivers at one key: the
// suite must be simulated exactly once, with late callers waiting on the
// in-flight measurement instead of duplicating it (the Lab.measure race).
func TestMeasureSingleflight(t *testing.T) {
	lab := NewLab(Config{Instructions: 2000})
	counter := &countingCache{}
	lab.Store = counter
	m := machine.CoreI9()
	def, _ := lab.Suite("dotnet")
	ps := def.Profiles()[:4]

	const callers = 8
	results := make([][]core.Measurement, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = lab.measure(context.Background(), "race-key", ps, m, sim.Options{Instructions: 2000})
		}(i)
	}
	wg.Wait()

	if n := counter.puts.Load(); n != 1 {
		t.Fatalf("suite measured %d times for one key; want 1", n)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d errored: %v", i, errs[i])
		}
	}
	for i := 1; i < callers; i++ {
		if &results[i][0] != &results[0][0] {
			t.Fatalf("caller %d received a different measurement slice", i)
		}
	}
}

// TestMeasureCancelledEvicted checks the error path of the singleflight:
// a cancelled measurement must propagate the context error to every
// waiter, write nothing to the store, and leave no poisoned cache entry —
// a later call with a live context re-measures and succeeds.
func TestMeasureCancelledEvicted(t *testing.T) {
	lab := NewLab(Config{Instructions: 2000})
	counter := &countingCache{}
	lab.Store = counter
	m := machine.CoreI9()
	def, _ := lab.Suite("dotnet")
	ps := def.Profiles()[:4]

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lab.measure(ctx, "cancel-key", ps, m, sim.Options{Instructions: 2000}); err == nil {
		t.Fatal("cancelled measure should fail")
	}
	if n := counter.puts.Load(); n != 0 {
		t.Fatalf("cancelled measurement stored %d entries; want 0", n)
	}

	ms, err := lab.measure(context.Background(), "cancel-key", ps, m, sim.Options{Instructions: 2000})
	if err != nil {
		t.Fatalf("re-measure after cancellation: %v", err)
	}
	if len(ms) != len(ps) {
		t.Fatalf("re-measure yielded %d measurements, want %d", len(ms), len(ps))
	}
	if n := counter.puts.Load(); n != 1 {
		t.Fatalf("re-measure stored %d entries; want 1", n)
	}
}

// TestOnceMemo checks the generic memo: one execution per key, shared
// value, and eviction on error so a later call can succeed.
func TestOnceMemo(t *testing.T) {
	lab := NewLab(Config{Instructions: 2000})
	var runs atomic.Int64
	f := func(context.Context) (any, error) {
		runs.Add(1)
		return "value", nil
	}
	const callers = 8
	var wg sync.WaitGroup
	vals := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _ = lab.once(context.Background(), "memo-key", f)
		}(i)
	}
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("memoized function ran %d times; want 1", n)
	}
	for i := range vals {
		if vals[i] != "value" {
			t.Fatalf("caller %d got %v", i, vals[i])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lab.once(ctx, "memo-err", func(ctx context.Context) (any, error) {
		return nil, ctx.Err()
	}); err == nil {
		t.Fatal("erroring memo should fail")
	}
	v, err := lab.once(context.Background(), "memo-err", func(context.Context) (any, error) {
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("memo entry not evicted on error: v=%v err=%v", v, err)
	}
}

// TestDotNetIndividualExactLimit checks the stride sample honors the
// configured limit exactly and spans the suite rather than a prefix, for
// limits that do not divide the suite size.
func TestDotNetIndividualExactLimit(t *testing.T) {
	for _, n := range []int{1, 7, 219} {
		cfg := Quick()
		cfg.Instructions = 1200
		cfg.DotNetIndividualLimit = n
		lab := NewLab(cfg)
		ms, err := lab.MeasureSuiteByName(context.Background(), "dotnet-individual", machine.CoreI9())
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != n {
			t.Fatalf("limit %d yielded %d workloads", n, len(ms))
		}
	}
}

// TestDotNetIndividualKeyedOnSelection checks that two different limits
// never share a cache entry: the key covers the actual selection.
func TestDotNetIndividualKeyedOnSelection(t *testing.T) {
	cfg := Quick()
	cfg.Instructions = 2000
	cfg.DotNetIndividualLimit = 5
	lab := NewLab(cfg)
	m := machine.CoreI9()
	a, err := lab.MeasureSuiteByName(context.Background(), "dotnet-individual", m)
	if err != nil {
		t.Fatal(err)
	}
	lab.Cfg.DotNetIndividualLimit = 9
	b, err := lab.MeasureSuiteByName(context.Background(), "dotnet-individual", m)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 5 || len(b) != 9 {
		t.Fatalf("got %d and %d measurements, want 5 and 9", len(a), len(b))
	}
	// Distinct selections must also be distinct measurement sets: the
	// 9-sample is not the 5-sample (different strides pick different
	// workloads past index 0).
	if a[1].Workload.Name == b[1].Workload.Name {
		t.Fatalf("different limits picked the same second workload %q — key collision suspected", a[1].Workload.Name)
	}
}

// TestWarmMeasureSuiteCopiesNoCatalog: once a sampled suite is measured,
// answering it again from memory allocates far less than one copy of its
// 2906-profile catalog (about 720 KB), and the measure key, which names
// the "measure" trace span, keeps its recorded form.
func TestWarmMeasureSuiteCopiesNoCatalog(t *testing.T) {
	cfg := Quick()
	cfg.Instructions = 2000
	cfg.DotNetIndividualLimit = 4
	lab := NewLab(cfg)
	lab.Obs = obs.New()
	def, ok := lab.Suite("dotnet-individual")
	if !ok {
		t.Fatal("dotnet-individual not registered")
	}
	ctx := context.Background()
	m := machine.CoreI9()
	first, err := lab.MeasureSuite(ctx, def, m)
	if err != nil {
		t.Fatal(err)
	}

	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		ms, err := lab.MeasureSuite(ctx, def, m)
		if err != nil || len(ms) != len(first) || &ms[0] != &first[0] {
			t.Fatalf("warm call %d: %d measurements, err %v; want the cached %d", i, len(ms), err, len(first))
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= 16<<10 {
		t.Errorf("a warm MeasureSuite allocates %d bytes per call, want under 16 KiB (no catalog copy)", perCall)
	}

	const key = "suite/dotnet-individual/Intel Core i9-9980XE/4-5c37347d8df22864"
	var events strings.Builder
	if err := lab.Obs.WriteJSONL(&events); err != nil {
		t.Fatal(err)
	}
	var roots []string
	for _, line := range strings.Split(strings.TrimSpace(events.String()), "\n") {
		var ev struct {
			Type, Name, Detail string
			Depth              int
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "span" && ev.Depth == 0 {
			roots = append(roots, ev.Name+" "+ev.Detail)
		}
	}
	if len(roots) != 1 || roots[0] != "measure "+key {
		t.Errorf("root spans %q, want one measure span named %q", roots, key)
	}
}

// fitDrivers are the drivers that fit suites through Lab.characterize:
// between them they ask for 9 fits of 5 suite measurements.
var fitDrivers = []string{"table3", "table4", "fig1", "fig2", "crossisa"}

// fitConfig is the tiny configuration TestWarmStoreEqualsCold runs.
func fitConfig() Config {
	cfg := Quick()
	cfg.Instructions = 2000
	cfg.DotNetIndividualLimit = 40
	cfg.CoreSweep = []int{1, 4}
	return cfg
}

// runFitDrivers runs fitDrivers on lab, all at once when concurrent, and
// returns each one's text rendering.
func runFitDrivers(t *testing.T, lab *Lab, concurrent bool) []string {
	t.Helper()
	texts := make([]string, len(fitDrivers))
	errs := make([]error, len(fitDrivers))
	var wg sync.WaitGroup
	for i, name := range fitDrivers {
		d, ok := DriverByName(name)
		if !ok {
			t.Fatalf("driver %s is not registered", name)
		}
		run := func() {
			res, err := d.Run(context.Background(), lab)
			if err != nil {
				errs[i] = err
				return
			}
			texts[i] = artifact.Text(res.Artifact())
		}
		if !concurrent {
			run()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", fitDrivers[i], err)
		}
	}
	return texts
}

// TestCharacterizeOncePerSuite: on one Lab, the fitting drivers fit each
// suite measurement once, and answer the other 4 of their 9 fits from
// the Lab.
func TestCharacterizeOncePerSuite(t *testing.T) {
	lab := NewLab(fitConfig())
	lab.Obs = obs.New()
	runFitDrivers(t, lab, false)
	if got := lab.Obs.Counter("lab.characterize.hits"); got != 4 {
		t.Fatalf("lab.characterize.hits = %d, want 4 (9 fits of 5 suite measurements)", got)
	}
}

// TestConcurrentDriversShareFits runs the fitting drivers concurrently on
// one Lab, as charnetd does. Each must render the text of a sequential
// run, the shared fits must still be made once each, and under -race no
// driver may write to a fit another one reads. The concurrent Lab reads
// the sequential run's store, so it fits without simulating.
func TestConcurrentDriversShareFits(t *testing.T) {
	store, err := mstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seq := NewLab(fitConfig())
	seq.Store = store
	want := runFitDrivers(t, seq, false)
	lab := NewLab(fitConfig())
	lab.Store = store
	lab.Obs = obs.New()
	got := runFitDrivers(t, lab, true)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: concurrent text differs from the sequential run", fitDrivers[i])
		}
	}
	if hits := lab.Obs.Counter("lab.characterize.hits"); hits != 4 {
		t.Errorf("lab.characterize.hits = %d, want 4", hits)
	}
}
