// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver returns a structured result that
// produces a typed artifact (internal/artifact); String() on every result
// is the artifact's text rendering, so the CLI, the examples, the
// benchmarks and the tests all regenerate the same output from one code
// path, and the JSON/CSV renderers expose the same data structurally.
// Drivers register themselves in registry.go; cmd/charnet's dispatch
// table, usage string and `all` loop are generated from that registry.
//
// Drivers share a Lab and simulate only through it (Lab.measure), which
// caches measurements: most figures consume the same measured vectors,
// and the .NET suite alone has up to 2906 workloads. Every driver takes
// a context; cancelling it aborts in-flight measurement within one
// workload's sim time.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config sets the fidelity of the reproduction runs.
type Config struct {
	// Instructions per workload per core. Higher = steadier counters.
	Instructions uint64
	// DotNetIndividualLimit caps how many of the 2906 individual .NET
	// microbenchmarks the subset-B experiments use (0 = all).
	DotNetIndividualLimit int
	// CoreSweep is the core-count axis of Figs 11-12.
	CoreSweep []int
	// SampleInterval (cycles) for the Fig 13 correlation runs.
	SampleInterval float64
	// Workers bounds the measurement worker pool (0 = GOMAXPROCS). Purely
	// a scheduling knob: results are identical for any value.
	Workers int
}

// Quick returns a low-fidelity configuration for tests.
func Quick() Config {
	return Config{
		Instructions:          6000,
		DotNetIndividualLimit: 220,
		CoreSweep:             []int{1, 4, 16},
		SampleInterval:        2500,
	}
}

// Full returns the configuration used for the recorded EXPERIMENTS.md
// numbers: every workload, more instructions.
func Full() Config {
	return Config{
		Instructions:          30000,
		DotNetIndividualLimit: 0,
		CoreSweep:             []int{1, 2, 4, 8, 16},
		SampleInterval:        4000,
	}
}

// Lab caches measurements, of suites and of driver batches, and fits.
type Lab struct {
	Cfg Config

	// Registry resolves suite wire names to their definitions. Nil means
	// the built-in registry (the paper's suites); `charnet -suite-spec`
	// and the daemon install a registry extended with external suites.
	// Set it before first use — it must not change once measuring.
	Registry *workload.Registry

	// Store, when set, persists measurements across processes (the
	// `charnet -cache DIR` flag wires in an mstore.Store). The in-memory
	// map below still fronts it within a process.
	Store core.MeasurementCache

	// Obs, when set, traces measurements (one "measure <key>" span each,
	// per-workload sim spans beneath) and counts singleflight coalescing.
	// Nil disables all instrumentation at ~zero cost.
	Obs *obs.Trace

	mu    sync.Mutex
	memo  map[string]*memoEntry
	plans map[planKey]*suitePlan
}

// planKey names what a suite's plan depends on: the suite, and for a
// sampled suite the configured sample limit.
type planKey struct {
	def   *workload.SuiteDef
	limit int
}

// suitePlan is what MeasureSuite measures for one suite: its profiles (a
// sampled suite's stride sample) and, for a sampled suite, the selection
// ID its measure key carries. It is built once per Lab, so a request
// answered from memory copies no catalog.
type suitePlan struct {
	ps  []workload.Profile
	sel string
}

// memoEntry is the Lab's singleflight cell (see Lab.once).
type memoEntry struct {
	done chan struct{}
	val  any
	err  error
}

// NewLab builds a Lab with the given fidelity.
func NewLab(cfg Config) *Lab {
	return &Lab{
		Cfg:   cfg,
		memo:  make(map[string]*memoEntry),
		plans: make(map[planKey]*suitePlan),
	}
}

// measure measures ps on m under opts once per key, which names exactly
// those inputs: the one way a driver simulates, so every run gets the
// worker pool, the memo, the store and a "measure <key>" span.
func (l *Lab) measure(ctx context.Context, key string, ps []workload.Profile, m *machine.Config, opts sim.Options) ([]core.Measurement, error) {
	start := l.Obs.Now()
	v, how, err := l.once(ctx, key, func(ctx context.Context) (any, error) {
		span := l.Obs.Span("measure", key)
		opts.Obs = span
		ms, err := core.MeasureSuite(ctx, l.Store, ps, m, opts, l.Cfg.Workers)
		span.End()
		l.Obs.Observe("measure.latency", span.Duration())
		return ms, err
	})
	switch how {
	case finished:
		l.Obs.Add("lab.memcache.hits", 1)
	case waited: // joined an in-flight measurement instead of duplicating it
		l.Obs.Add("lab.singleflight.coalesced", 1)
		l.Obs.Observe("measure.singleflight.wait", l.Obs.Now().Sub(start))
	}
	if err != nil {
		return nil, err
	}
	return v.([]core.Measurement), nil
}

// measureBatch measures one batch of a driver's study, ps on m under
// opts, through measure, keyed on the study, the machine, the selection
// and the options as store keys encode them (without opts.Obs).
func (l *Lab) measureBatch(ctx context.Context, study string, ps []workload.Profile, m *machine.Config, opts sim.Options) ([]core.Measurement, error) {
	o, err := json.Marshal(opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", study, err)
	}
	return l.measure(ctx, study+"/"+m.Name+"/"+selectionID(ps)+"/"+string(o), ps, m, opts)
}

// outcome says how once answered a call.
type outcome int

const (
	computed outcome = iota // this call ran f
	finished                // an earlier call had already run f
	waited                  // this call waited for another call's f
)

// once runs f at most once per key and shares the result: concurrent
// callers wait for the leader, a failed computation (in practice, a
// cancelled one) is evicted so later callers retry, and a successful one
// is served from memory forever after. Measurements, fits and rendered
// measure bodies all go through it.
func (l *Lab) once(ctx context.Context, key string, f func(context.Context) (any, error)) (any, outcome, error) {
	l.mu.Lock()
	if e, ok := l.memo[key]; ok {
		l.mu.Unlock()
		how := finished
		select {
		case <-e.done:
		default:
			how = waited
			<-e.done
		}
		return e.val, how, e.err
	}
	e := &memoEntry{done: make(chan struct{})}
	l.memo[key] = e
	l.mu.Unlock()
	e.val, e.err = f(ctx)
	if e.err != nil {
		// Evict before releasing waiters, so the failed entry cannot
		// poison the key. A caller racing the eviction either holds e
		// (and sees the error) or misses the map and computes afresh.
		l.mu.Lock()
		delete(l.memo, key)
		l.mu.Unlock()
	}
	close(e.done)
	return e.val, computed, e.err
}

// registry resolves the Lab's suite registry, defaulting to the
// built-in suites.
func (l *Lab) registry() *workload.Registry {
	if l.Registry != nil {
		return l.Registry
	}
	return workload.Builtin()
}

// MeasureSuite measures one registered suite on m, honoring the suite's
// measurement policy: a nonzero instruction divisor scales the
// per-workload budget (short microbenchmarks get a slice of it), and
// sampled suites honor the configured individual-workload limit via a
// deterministic stride sample. Results share the Lab's per-key
// singleflight and caches.
func (l *Lab) MeasureSuite(ctx context.Context, def *workload.SuiteDef, m *machine.Config) ([]core.Measurement, error) {
	key, plan := l.measureKey(def, m)
	opts := sim.Options{Instructions: l.Cfg.Instructions}
	if d := def.Measurement.InstructionsDivisor; d > 0 {
		opts.Instructions = l.Cfg.Instructions/d + def.Measurement.InstructionsExtra
	}
	return l.measure(ctx, key, plan.ps, m, opts)
}

// measureKey returns the key of def's measurement on m in the Lab's
// caches, and def's plan.
func (l *Lab) measureKey(def *workload.SuiteDef, m *machine.Config) (string, *suitePlan) {
	plan := l.plan(def)
	key := "suite/" + def.Wire + "/" + m.Name
	if def.Measurement.Sampled {
		// Key on the actual selection, not just its size: two configs with
		// equal limits but different sampled sets must not collide.
		key += "/" + plan.sel
	}
	return key, plan
}

// characterize returns the §IV model of the named suite on m:
// core.Characterize over its measurements, with the top four principal
// components and average linkage. Table III, Table IV, Figs 1 and 2 and
// the cross-ISA study fit the same suites, so the Lab fits each
// measurement once, keyed on its measure key, and counts every call it
// answers without fitting in lab.characterize.hits. Drivers may run
// concurrently on one Lab and share the result, so none may modify it.
func (l *Lab) characterize(ctx context.Context, suite string, m *machine.Config) (*core.Characterization, error) {
	def, err := l.lookup(suite)
	if err != nil {
		return nil, err
	}
	key, _ := l.measureKey(def, m)
	v, how, err := l.once(ctx, "characterize/"+key, func(ctx context.Context) (any, error) {
		ms, err := l.MeasureSuite(ctx, def, m)
		if err != nil {
			return nil, err
		}
		return core.Characterize(ms, 4, cluster.Average)
	})
	if err != nil {
		return nil, err
	}
	if how != computed {
		l.Obs.Add("lab.characterize.hits", 1)
	}
	return v.(*core.Characterization), nil
}

// plan returns def's suite plan under the configured sample limit,
// building it on first use.
func (l *Lab) plan(def *workload.SuiteDef) *suitePlan {
	k := planKey{def: def}
	if def.Measurement.Sampled {
		k.limit = l.Cfg.DotNetIndividualLimit
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if p, ok := l.plans[k]; ok {
		return p
	}
	p := &suitePlan{}
	if n := k.limit; def.Measurement.Sampled && n > 0 && n < def.Len() {
		// Deterministic stride sample across categories rather than a
		// prefix, so the limited set still spans the suite. The loop is
		// bounded by n itself, so the sample is exactly n workloads for
		// any suite size; max index (n-1)*(len/n) < len. Only the sample
		// is copied out of the catalog.
		stride := def.Len() / n
		p.ps = make([]workload.Profile, n)
		for i := range p.ps {
			p.ps[i] = def.Profile(i * stride)
		}
	} else {
		p.ps = def.Profiles()
	}
	if def.Measurement.Sampled {
		p.sel = selectionID(p.ps)
	}
	l.plans[k] = p
	return p
}

// TableIVDotNetSubset is the paper's chosen 8-category .NET subset.
var TableIVDotNetSubset = []string{
	"System.Runtime", "System.Threading", "System.ComponentModel",
	"System.Linq", "System.Net", "System.MathBenchmarks",
	"System.Diagnostics", "CscBench",
}

// TableIVAspNetSubset is the paper's chosen 8-element ASP.NET subset.
var TableIVAspNetSubset = []string{
	"DbFortunesRaw", "MvcDbFortunesRaw", "MvcDbMultiUpdateRaw", "Plaintext",
	"Json", "CopyToAsync", "MvcJsonNetOutput2M", "MvcJsonNetInput2M",
}

// TableIVSpecSubset is the paper's chosen 8-element SPEC CPU17 subset.
var TableIVSpecSubset = []string{
	"mcf", "cactuBSSN", "wrf", "gcc", "omnetpp", "perlbench", "xalancbmk", "bwaves",
}

// selectionID digests a workload selection into a short stable cache-key
// component: its size plus a hash of the names in order.
func selectionID(ws []workload.Profile) string {
	h := fnv.New64a()
	for _, w := range ws {
		//charnet:ignore errdiscard hash.Hash.Write is documented to never return an error
		io.WriteString(h, w.Name)
		//charnet:ignore errdiscard hash.Hash.Write is documented to never return an error
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%d-%016x", len(ws), h.Sum64())
}
