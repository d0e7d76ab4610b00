package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/workload"
)

// env is what every workload shares: a scratch directory inside the
// checkout, the recorded output digests, the built-in suite specs and the
// seed.
type env struct {
	work    string
	seed    uint64
	digests digests
	specs   [][]byte
}

func newEnv(opt options) (*env, error) {
	d, err := loadDigests()
	if err != nil {
		return nil, err
	}
	paths, err := filepath.Glob(filepath.Join(opt.root, "internal", "workload", "specs", "*.json"))
	if err != nil || len(paths) == 0 {
		return nil, fmt.Errorf("no built-in suite specs under %s", opt.root)
	}
	specs := make([][]byte, len(paths))
	for i, path := range paths {
		if specs[i], err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	base := filepath.Join(opt.root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, fmt.Errorf("scratch space: %w", err)
	}
	work, err := os.MkdirTemp(base, "work-")
	if err != nil {
		return nil, fmt.Errorf("scratch space: %w", err)
	}
	return &env{work: work, seed: opt.seed, digests: d, specs: specs}, nil
}

// buildRegistry parses the built-in suite specs: the registry construction
// every process pays on first use of workload.Builtin, which set-ups
// repeat so it can be timed more than once per process.
func (e *env) buildRegistry() error {
	for _, data := range e.specs {
		if _, err := workload.ParseSpec(data); err != nil {
			return fmt.Errorf("built-in suite spec: %w", err)
		}
	}
	return nil
}

func (e *env) close() {
	if err := os.RemoveAll(e.work); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing scratch space: %v\n", err)
	}
}

// setupReps is how many times a workload with a cheap set-up repeats it
// at the start of a run, so setup_s is a median over many samples.
const setupReps = 15

// reps is n, or 1 at tiny size.
func (r *runner) reps(n int) int {
	if r.tiny {
		return 1
	}
	return n
}

// opStat is what one timed operation cost.
type opStat struct {
	wall    time.Duration
	alloc   uint64 // bytes allocated
	mallocs uint64
}

// runner times one run of a workload: its set-ups, its operations and
// their output checks, and (with --trace 1) the per-layer accumulators.
type runner struct {
	env    *env
	tiny   bool
	trace  bool
	budget time.Duration

	setups    []time.Duration
	plainOps  []time.Duration // untraced operation latencies
	tracedOps []time.Duration // traced operation latencies
	alloc     uint64          // bytes the untraced operations allocated
	peaks     []float64       // peak RSS (MB) during each untraced operation
	attempted int
	failed    int

	refs    []time.Duration // reference kernel times (calib.go)
	lastRef time.Time

	layer *layers
}

func newRunner(e *env, opt options) *runner {
	return &runner{
		env:    e,
		tiny:   opt.tiny,
		trace:  opt.trace,
		budget: time.Duration(opt.seconds * float64(time.Second)),
		layer:  newLayers(),
	}
}

// more reports whether operation (or epoch) i should start before
// deadline. The first always does and a traced run makes at least one
// traced and one untraced; a tiny run stops there.
func (r *runner) more(i int, deadline time.Time) bool {
	if i == 0 || (r.trace && i < 2) {
		return true
	}
	return !r.tiny && time.Now().Before(deadline)
}

// traced reports whether operation i runs traced: with --trace 1 every
// other operation does, so traced and untraced ones see the same drift.
func (r *runner) traced(i int) bool { return r.trace && i%2 == 1 }

// setup times one set-up. It collects garbage first, so the heap left by
// earlier operations does not land in the set-up time.
func (r *runner) setup(f func() error) error {
	r.calibrate(false)
	runtime.GC()
	t0 := time.Now()
	err := f()
	r.setups = append(r.setups, time.Since(t0))
	return err
}

// op times f as one operation, then runs check outside the timed region.
// An error from either counts the operation as failed.
func (r *runner) op(traced bool, f, check func() error) opStat {
	r.calibrate(false)
	var before, after runtime.MemStats
	resetPeakRSS()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := f()
	wall := time.Since(t0)
	peak := peakRSSMB()
	runtime.ReadMemStats(&after)
	st := opStat{wall: wall, alloc: after.TotalAlloc - before.TotalAlloc, mallocs: after.Mallocs - before.Mallocs}
	if err == nil {
		err = check()
	}
	r.attempted++
	if err != nil {
		r.fail(err)
	}
	if traced {
		r.tracedOps = append(r.tracedOps, wall)
		return st
	}
	r.plainOps = append(r.plainOps, wall)
	r.alloc += st.alloc
	r.peaks = append(r.peaks, peak)
	return st
}

// batch records operations issued concurrently (serve-mix requests):
// their latencies, how many failed, the allocation they shared and the
// peak RSS during them. The caller has already reported each failure.
func (r *runner) batch(traced bool, lat []time.Duration, failed int, alloc uint64, peak float64) {
	r.attempted += len(lat)
	r.failed += failed
	if traced {
		r.tracedOps = append(r.tracedOps, lat...)
		return
	}
	r.plainOps = append(r.plainOps, lat...)
	r.alloc += alloc
	r.peaks = append(r.peaks, peak)
}

// fail counts a failed operation and reports the first few on stderr.
func (r *runner) fail(err error) {
	r.failed++
	logFailure(r.failed, err)
}

func logFailure(n int, err error) {
	if n <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: failed operation: %v\n", err)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runner) result() result {
	defs, vals := endToEnd, r.endToEnd()
	if r.trace {
		defs, vals = perLayer, r.layer.values(r)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res
}

func (r *runner) endToEnd() map[string]float64 {
	scale := r.hostScale()
	m := map[string]float64{
		"setup_s":  median(r.setups).Seconds() * scale,
		"op_p50_s": median(r.plainOps).Seconds() * scale,
	}
	if len(r.peaks) > 0 {
		sort.Float64s(r.peaks)
		m["peak_rss_mb"] = r.peaks[len(r.peaks)/2]
	}
	if n := len(r.plainOps); n > 0 {
		m["alloc_mb_per_op"] = float64(r.alloc) / float64(n) / 1e6
	}
	return m
}

// resetPeakRSS resets the kernel's peak-RSS mark to the current resident
// set, so the next peakRSSMB reads the peak of what follows.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: resetting the peak RSS: %v\n", err)
	}
}

var vmHWM = regexp.MustCompile(`VmHWM:\s+(\d+) kB`)

// peakRSSMB is the process's peak resident set size in MB since the last
// resetPeakRSS, 0 if it cannot be read.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	m := vmHWM.FindSubmatch(b)
	if m == nil {
		return 0
	}
	kb, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		return 0
	}
	return kb * 1024 / 1e6
}

func sorted(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median is the middle value (the mean of the middle two for an even
// count), 0 for none.
func median(ds []time.Duration) time.Duration {
	s := sorted(ds)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest of the usual percentiles that still leaves at least
// ten samples beyond it, returned with that percentile; 0, 0 when there
// are too few samples.
func tail(ds []time.Duration) (time.Duration, float64) {
	s := sorted(ds)
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(len(s))*(1-p/100) >= 10 {
			return s[int(math.Ceil(p/100*float64(len(s))))-1], p
		}
	}
	return 0, 0
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
