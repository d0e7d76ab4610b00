// Package obs is the pipeline's self-observability layer: hierarchical
// wall-time spans and named counters/gauges for the measurement pipeline
// itself (drivers, suite measurements, per-workload simulations, store
// traffic), with exporters for Chrome trace-event JSON (Perfetto), a JSONL
// event log, and an end-of-run text self-profile.
//
// The paper's method is observability — perf counters plus event traces —
// and this package applies the same lens to the reproduction pipeline, so
// a multi-second `charnet -full all` stops being a black box.
//
// Two invariants shape the design:
//
//   - Nil safety. Every method on *Trace and *Span is a no-op on a nil
//     receiver and the disabled path is allocation-free, so instrumented
//     code needs no "if tracing" branches and uninstrumented runs pay
//     ~zero cost (see BenchmarkDisabledSpan).
//
//   - Clock confinement. All wall-clock reads happen behind the injectable
//     Clock interface, and this package is the only one allowed to call
//     time.Now/time.Since (machine-enforced by charnet-vet's wallclock
//     analyzer). Observability never feeds experiment output: everything
//     here goes to stderr or files, and simulation results remain a pure
//     function of their seeds.
//
// Span taxonomy used by the pipeline (lane = Chrome-trace thread id):
//
//	driver <cmd>          lane 0   one per CLI command (cmd/charnet)
//	  measure <suite key> lane 0   one per suite measurement (experiments.Lab)
//	    sim <workload>    lane 1+  one per workload, on its worker's lane
//	      prewarm                  engine setup + cache/TLB prewarm
//	      run                      warmup + measured instruction loop
//	      derive                   metric derivation (perf.Normalize)
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Clock abstracts wall-clock reads so that everything outside this package
// can stay deterministic: the pipeline reads time only through the Trace's
// clock, and tests inject a fake.
type Clock interface {
	Now() time.Time
}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// A Trace collects spans, counters, gauges and histograms for one
// pipeline run. The zero value is not used; construct with New. A nil
// *Trace is the disabled state: every method no-ops.
type Trace struct {
	clock    Clock
	progress io.Writer
	// progressMu serializes progress lines: spans end on concurrent
	// workers, and the writer need not be safe for concurrent use.
	progressMu sync.Mutex

	mu       sync.Mutex
	start    time.Time
	spans    []*Span
	active   []*Span // open sequential spans (the Trace.Span stack)
	counters map[string]int64
	gauges   map[string]float64

	// Histograms live behind their own RWMutex so the record path (a
	// read-locked lookup plus atomics, see histogram.go) never contends
	// with span bookkeeping.
	histMu     sync.RWMutex
	histograms map[string]*Histogram
}

// An Option configures New.
type Option func(*Trace)

// WithClock injects a clock (tests use a deterministic fake).
func WithClock(c Clock) Option { return func(t *Trace) { t.clock = c } }

// WithProgress enables live progress lines for driver- and suite-level
// spans (depth 0 and 1) on w, conventionally os.Stderr.
func WithProgress(w io.Writer) Option { return func(t *Trace) { t.progress = w } }

// New returns an enabled trace.
func New(opts ...Option) *Trace {
	t := &Trace{
		clock:      systemClock{},
		counters:   map[string]int64{},
		gauges:     map[string]float64{},
		histograms: map[string]*Histogram{},
	}
	for _, o := range opts {
		o(t)
	}
	t.start = t.clock.Now()
	return t
}

// A Span is one timed phase of the pipeline. Spans aggregate in the
// self-profile by name; detail carries the per-instance label (workload
// name, suite key). A nil *Span is inert.
type Span struct {
	tr     *Trace
	parent *Span
	name   string
	detail string
	lane   int
	depth  int
	start  time.Time
	dur    time.Duration
	ended  bool
	seq    bool // created via Trace.Span: participates in the active stack
}

// Span starts a span parented to the innermost open span that was also
// started via Trace.Span. This auto-nesting serves the sequential pipeline
// skeleton (drivers run one after another, suites within a driver);
// concurrent sections must use the explicit (*Span).Child/ChildLane.
func (t *Trace) Span(name, detail string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var parent *Span
	if n := len(t.active); n > 0 {
		parent = t.active[n-1]
	}
	s := t.newSpanLocked(parent, name, detail, laneOf(parent))
	s.seq = true
	t.active = append(t.active, s)
	t.mu.Unlock()
	t.emitProgress(s, false)
	return s
}

// Child starts a subspan on the same lane as s.
func (s *Span) Child(name, detail string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.child(s, name, detail, s.lane)
}

// ChildLane starts a subspan on an explicit lane (Chrome-trace thread id).
// Concurrent workers each take their own lane so spans nest correctly in
// the exported trace.
func (s *Span) ChildLane(lane int, name, detail string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.child(s, name, detail, lane)
}

func (t *Trace) child(parent *Span, name, detail string, lane int) *Span {
	t.mu.Lock()
	s := t.newSpanLocked(parent, name, detail, lane)
	t.mu.Unlock()
	t.emitProgress(s, false)
	return s
}

// newSpanLocked records the span at start time so export order is stable.
func (t *Trace) newSpanLocked(parent *Span, name, detail string, lane int) *Span {
	depth := 0
	if parent != nil {
		depth = parent.depth + 1
	}
	s := &Span{
		tr:     t,
		parent: parent,
		name:   name,
		detail: detail,
		lane:   lane,
		depth:  depth,
		start:  t.clock.Now(),
	}
	t.spans = append(t.spans, s)
	return s
}

func laneOf(s *Span) int {
	if s == nil {
		return 0
	}
	return s.lane
}

// End closes the span, fixing its duration. Ending a Trace.Span-created
// span also pops it (and any forgotten descendants) off the active stack.
// End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	if s.ended {
		t.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = t.clock.Now().Sub(s.start)
	if s.seq {
		for i := len(t.active) - 1; i >= 0; i-- {
			if t.active[i] == s {
				t.active = t.active[:i]
				break
			}
		}
	}
	t.mu.Unlock()
	t.emitProgress(s, true)
}

// Duration returns the span's duration (zero until End, zero on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.dur
}

// Trace returns the owning trace (nil on a nil span), letting deep callees
// reach counters through the span they were handed.
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// Add increments a named counter.
func (t *Trace) Add(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += delta
	t.mu.Unlock()
}

// Gauge sets a named gauge to its latest value.
func (t *Trace) Gauge(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.gauges[name] = v
	t.mu.Unlock()
}

// Counter returns a counter's current value (0 on nil or unknown).
func (t *Trace) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// Now reads the trace's clock (the zero time on a nil trace). Pipeline
// code uses this — never time.Now directly — for ad-hoc interval
// measurements like worker-pool utilization.
func (t *Trace) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.clock.Now()
}

// Snapshot returns the current counters, gauges and histogram summaries as
// a flat map, suitable for expvar publishing. Histograms appear as nested
// maps (count, sum and the headline quantiles in nanoseconds). Key order
// is deterministic for any JSON rendering: encoding/json sorts map keys,
// and Metrics is the explicitly ordered form.
func (t *Trace) Snapshot() map[string]any {
	if t == nil {
		return nil
	}
	snap := t.Metrics()
	out := make(map[string]any, len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms))
	for _, c := range snap.Counters {
		out[c.Name] = c.Value
	}
	for _, g := range snap.Gauges {
		out[g.Name] = g.Value
	}
	for _, h := range snap.Histograms {
		out[h.Name] = map[string]any{
			"count":  h.Count,
			"sum_ns": h.Sum,
			"min_ns": h.Min,
			"max_ns": h.Max,
			"p50_ns": h.Quantile(0.50),
			"p95_ns": h.Quantile(0.95),
			"p99_ns": h.Quantile(0.99),
		}
	}
	return out
}

// emitProgress prints driver- and suite-level span boundaries when a
// progress writer is configured. Deeper spans (per-workload sims) are
// silent: 2906 lines per suite would drown the signal.
func (t *Trace) emitProgress(s *Span, done bool) {
	if t == nil || t.progress == nil || s.depth > 1 {
		return
	}
	indent := strings.Repeat("  ", s.depth)
	label := s.name
	if s.detail != "" {
		label = s.name + " " + s.detail
	}
	t.progressMu.Lock()
	defer t.progressMu.Unlock()
	if done {
		//charnet:ignore errdiscard progress output is best-effort console feedback
		fmt.Fprintf(t.progress, "charnet: %s%s done in %s\n", indent, label, s.Duration().Round(time.Millisecond))
	} else {
		//charnet:ignore errdiscard progress output is best-effort console feedback
		fmt.Fprintf(t.progress, "charnet: %s%s ...\n", indent, label)
	}
}

// spanRec is an immutable snapshot of one span, decoupled from the live
// (still mutating) Span values so exporters run race-free.
type spanRec struct {
	Name, Detail string
	Lane, Depth  int
	Start        time.Duration // offset from trace start
	Dur          time.Duration
	parent       int // index into the snapshot slice, -1 for roots
}

func (r spanRec) label() string {
	if r.Detail == "" {
		return r.Name
	}
	return r.Name + " " + r.Detail
}

// snapshot copies spans (in start order), counters and gauges under the
// lock. Open spans get a provisional duration up to now. The total is the
// latest span end (so a finished trace snapshots identically every time),
// falling back to the clock for span-less traces.
func (t *Trace) snapshot() (recs []spanRec, counters map[string]int64, gauges map[string]float64, total time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var now time.Time
	for _, s := range t.spans {
		if !s.ended {
			now = t.clock.Now()
			break
		}
	}
	if len(t.spans) == 0 {
		now = t.clock.Now()
	}
	idx := make(map[*Span]int, len(t.spans))
	recs = make([]spanRec, len(t.spans))
	for i, s := range t.spans {
		idx[s] = i
		dur := s.dur
		if !s.ended {
			dur = now.Sub(s.start)
		}
		parent := -1
		if s.parent != nil {
			parent = idx[s.parent]
		}
		recs[i] = spanRec{
			Name: s.name, Detail: s.detail,
			Lane: s.lane, Depth: s.depth,
			Start: s.start.Sub(t.start), Dur: dur,
			parent: parent,
		}
		if end := recs[i].Start + recs[i].Dur; end > total {
			total = end
		}
	}
	if total == 0 && !now.IsZero() {
		total = now.Sub(t.start)
	}
	counters = make(map[string]int64, len(t.counters))
	for name, v := range t.counters {
		counters[name] = v
	}
	gauges = make(map[string]float64, len(t.gauges))
	for name, v := range t.gauges {
		gauges[name] = v
	}
	return recs, counters, gauges, total
}

// sortedKeys returns map keys in sorted order: every exporter emits
// counters and gauges deterministically.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
