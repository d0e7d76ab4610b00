// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver returns a structured result that
// produces a typed artifact (internal/artifact); String() on every result
// is the artifact's text rendering, so the CLI, the examples, the
// benchmarks and the tests all regenerate the same output from one code
// path, and the JSON/CSV renderers expose the same data structurally.
// Drivers register themselves in registry.go; cmd/charnet's dispatch
// table, usage string and `all` loop are generated from that registry.
//
// Drivers share a Lab, which caches suite measurements per machine: most
// figures consume the same measured vectors, and the .NET suite alone has
// up to 2906 workloads. Every driver takes a context; cancelling it
// aborts in-flight suite measurement within one workload's sim time.
package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"sync"

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

// Lab caches suite measurements per (suite, machine).
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

	// Obs, when set, traces suite measurements (one "measure <key>" span
	// each, per-workload sim spans beneath) and counts singleflight
	// coalescing. Nil disables all instrumentation at ~zero cost.
	Obs *obs.Trace

	mu    sync.Mutex
	cache map[string]*measureEntry
	memo  map[string]*memoEntry
}

// measureEntry is a singleflight cell: the first caller for a key creates
// it and measures; later callers wait on done and share the result — or
// the error, when the leader's context was cancelled mid-measurement.
type measureEntry struct {
	done chan struct{}
	ms   []core.Measurement
	err  error
}

// memoEntry is the singleflight cell for derived results shared between
// drivers (see Lab.once).
type memoEntry struct {
	done chan struct{}
	val  any
	err  error
}

// NewLab builds a Lab with the given fidelity.
func NewLab(cfg Config) *Lab {
	return &Lab{Cfg: cfg, cache: make(map[string]*measureEntry), memo: make(map[string]*memoEntry)}
}

func (l *Lab) measure(ctx context.Context, key string, ps []workload.Profile, m *machine.Config, opts sim.Options) ([]core.Measurement, error) {
	l.mu.Lock()
	if e, ok := l.cache[key]; ok {
		l.mu.Unlock()
		select {
		case <-e.done:
			l.Obs.Add("lab.memcache.hits", 1)
		default:
			// A measurement of this key is in flight: wait it out rather
			// than duplicating the full-suite simulation. If the leader's
			// context gets cancelled we inherit its error; the failed entry
			// is evicted, so a later uncancelled call re-measures.
			l.Obs.Add("lab.singleflight.coalesced", 1)
			waitStart := l.Obs.Now()
			<-e.done
			l.Obs.Observe("measure.singleflight.wait", l.Obs.Now().Sub(waitStart))
		}
		return e.ms, e.err
	}
	e := &measureEntry{done: make(chan struct{})}
	l.cache[key] = e
	l.mu.Unlock()
	span := l.Obs.Span("measure", key)
	opts.Obs = span
	e.ms, e.err = core.MeasureSuite(ctx, l.Store, ps, m, opts, l.Cfg.Workers)
	span.End()
	l.Obs.Observe("measure.latency", span.Duration())
	if e.err != nil {
		// Evict before releasing waiters: an entry that failed (in practice,
		// was cancelled) must not poison the key for future callers. A
		// caller racing the eviction either holds e (and sees the error) or
		// misses the map and measures fresh — both are correct.
		l.mu.Lock()
		delete(l.cache, key)
		l.mu.Unlock()
	}
	close(e.done)
	return e.ms, e.err
}

// once runs f at most once per key and shares the result, under the same
// singleflight-with-eviction discipline as measure: concurrent callers
// wait for the leader, a failed computation is evicted so later callers
// retry, and a successful one is served from memory forever after. It
// exists for derived results two drivers share — Figs 11 and 12 both
// consume the ASP.NET core-count sweep.
func (l *Lab) once(ctx context.Context, key string, f func(context.Context) (any, error)) (any, error) {
	l.mu.Lock()
	if e, ok := l.memo[key]; ok {
		l.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	e := &memoEntry{done: make(chan struct{})}
	l.memo[key] = e
	l.mu.Unlock()
	e.val, e.err = f(ctx)
	if e.err != nil {
		l.mu.Lock()
		delete(l.memo, key)
		l.mu.Unlock()
	}
	close(e.done)
	return e.val, e.err
}

func (l *Lab) opts() sim.Options {
	return sim.Options{Instructions: l.Cfg.Instructions}
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
	ps := def.Profiles()
	opts := l.opts()
	if d := def.Measurement.InstructionsDivisor; d > 0 {
		opts.Instructions = l.Cfg.Instructions/d + def.Measurement.InstructionsExtra
	}
	key := fmt.Sprintf("suite/%s/%s", def.Wire, m.Name)
	if def.Measurement.Sampled {
		if n := l.Cfg.DotNetIndividualLimit; n > 0 && n < len(ps) {
			// Deterministic stride sample across categories rather than a
			// prefix, so the limited set still spans the suite. The loop is
			// bounded by n itself, so the sample is exactly n workloads for
			// any suite size; max index (n-1)*(len/n) < len.
			stride := len(ps) / n
			sel := make([]workload.Profile, n)
			for i := range sel {
				sel[i] = ps[i*stride]
			}
			ps = sel
		}
		// Key on the actual selection, not just its size: two configs with
		// equal limits but different sampled sets must not collide.
		key = fmt.Sprintf("suite/%s/%s/%s", def.Wire, m.Name, selectionID(ps))
	}
	return l.measure(ctx, key, ps, m, opts)
}

// DotNetCategories measures the 44 .NET category archetypes on m.
func (l *Lab) DotNetCategories(ctx context.Context, m *machine.Config) ([]core.Measurement, error) {
	return l.MeasureSuiteByName(ctx, "dotnet", m)
}

// DotNetIndividual measures the individual .NET microbenchmarks on m,
// honoring the configured limit.
func (l *Lab) DotNetIndividual(ctx context.Context, m *machine.Config) ([]core.Measurement, error) {
	return l.MeasureSuiteByName(ctx, "dotnet-individual", m)
}

// AspNet measures the 53 ASP.NET benchmarks on m at their natural core
// counts.
func (l *Lab) AspNet(ctx context.Context, m *machine.Config) ([]core.Measurement, error) {
	return l.MeasureSuiteByName(ctx, "aspnet", m)
}

// Spec measures the SPEC CPU17 catalog on m.
func (l *Lab) Spec(ctx context.Context, m *machine.Config) ([]core.Measurement, error) {
	return l.MeasureSuiteByName(ctx, "spec", m)
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
