// Package core is the paper's primary contribution as a library: the
// end-to-end characterization pipeline. It measures a suite of workloads
// on a machine model (collecting the 24 Table I metrics for each), runs
// PCA over the standardized metric matrix, hierarchically clusters the
// workloads in the top-principal-component space, extracts a
// representative subset, and validates that subset with SPECspeed-style
// composite scores across two machines — exactly the §IV flow, plus the
// §V suite-comparison helpers built on the same pieces.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/pca"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Measurement pairs a workload with its measured metric vector.
type Measurement struct {
	Workload workload.Profile
	Vector   metrics.Vector
	Result   *sim.Result
	// Err records per-workload failures (e.g. OutOfMemory under a small
	// heap cap); failed measurements carry a zero vector.
	Err error
}

// MeasurementCache stores suite measurements keyed by their full inputs
// (workloads, machine, options), so identical measurement requests can be
// answered without re-simulating. Implementations compute their own keys
// from the arguments and must return results exactly as stored; a (nil,
// false) Get means "measure". internal/mstore provides the on-disk
// implementation.
type MeasurementCache interface {
	Get(ps []workload.Profile, m *machine.Config, opts sim.Options) ([]Measurement, bool)
	Put(ps []workload.Profile, m *machine.Config, opts sim.Options, ms []Measurement)
}

// MeasureSuite runs every workload of a suite on the machine and collects
// normalized metric vectors. Workloads run concurrently on a pool of
// workers (0 = GOMAXPROCS) — they are independent processes in the
// paper's methodology — and each lands in its input slot, so the result
// is ordered and identical for any worker count.
//
// An optional cache fronts the measurement: a hit returns the stored
// measurements immediately, a miss measures and stores. A nil cache
// degrades to plain measurement.
//
// Cancellation is checked at the per-workload boundary: the feeder stops
// handing out jobs and idle workers skip any job already in hand, so a
// cancelled context returns (nil, ctx.Err()) within one workload's sim
// time. Partial results are discarded rather than handed to callers that
// expect a complete suite, and nothing is written to the cache, so a
// cancelled measurement can never land a torn entry.
//
// When opts.Obs carries a suite-measurement span, every workload gets a
// "sim" child span on its worker's lane and the pool reports utilization
// (summed busy time over workers x wall time) as the "pool.utilization"
// gauge. None of this instrumentation affects the measurements.
func MeasureSuite(ctx context.Context, cache MeasurementCache, ps []workload.Profile, m *machine.Config, opts sim.Options, workers int) ([]Measurement, error) {
	if cache != nil {
		if ms, ok := cache.Get(ps, m, opts); ok {
			return ms, nil
		}
	}
	out := make([]Measurement, len(ps))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ps) {
		workers = len(ps)
	}
	if workers < 1 {
		workers = 1
	}
	suite := opts.Obs
	tr := suite.Trace()
	poolStart := tr.Now() // zero (and unused) when tracing is disabled
	done := ctx.Done()
	var busy atomic.Int64
	var wg sync.WaitGroup
	// A job carries its enqueue time so the receiving worker can report
	// how long it sat waiting for a free worker ("pool.queue.wait"). The
	// channel is unbuffered, so the wait spans the feeder offering the
	// index until a worker picks it up. enq stays the zero time when
	// tracing is disabled.
	type job struct {
		idx int
		enq time.Time
	}
	jobs := make(chan job)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			// One engine per worker for this suite only: each workload
			// resets it in place rather than building a machine.
			var runner sim.Runner
			for j := range jobs {
				if tr != nil {
					tr.Observe("pool.queue.wait", tr.Now().Sub(j.enq))
				}
				select {
				case <-done:
					// Cancelled with a job already handed over: drop it
					// unsimulated so the pool drains promptly.
					continue
				default:
				}
				p := ps[j.idx]
				o := opts
				wspan := suite.ChildLane(lane, "sim", p.Name)
				o.Obs = wspan
				out[j.idx] = measureOne(&runner, p, m, o)
				wspan.End()
				if tr != nil {
					busy.Add(int64(wspan.Duration()))
					tr.Observe("sim.workload.latency", wspan.Duration())
				}
			}
		}(w + 1)
	}
feed:
	for i := range ps {
		select {
		case jobs <- job{idx: i, enq: tr.Now()}:
		case <-done:
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if tr != nil {
		tr.Gauge("pool.workers", float64(workers))
		if elapsed := tr.Now().Sub(poolStart); elapsed > 0 {
			tr.Gauge("pool.utilization", float64(busy.Load())/(float64(workers)*float64(elapsed)))
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cache != nil {
		cache.Put(ps, m, opts, out)
	}
	return out, nil
}

// measureOne runs one workload on r and derives its measurement,
// reporting the derivation as a child span of the per-workload span in
// opts.Obs.
func measureOne(r *sim.Runner, p workload.Profile, m *machine.Config, opts sim.Options) Measurement {
	res, err := r.Run(p, m, opts)
	if err != nil {
		return Measurement{Workload: p, Err: err}
	}
	dspan := opts.Obs.Child("derive", "")
	ms := Derive(res)
	dspan.End()
	opts.Obs.Trace().Observe("sim.phase.derive", dspan.Duration())
	return ms
}

// Derive computes the measurement of a completed run: its Table I metric
// vector, normalized from the run's counters. A run whose counters do not
// normalize is a failed measurement. A fresh measurement and a
// measurement-store read both derive here.
func Derive(res *sim.Result) Measurement {
	v, err := perf.Normalize(res)
	if err != nil {
		return Measurement{Workload: res.Workload, Err: err}
	}
	return Measurement{Workload: res.Workload, Vector: v, Result: res}
}

// Vectors extracts the metric vectors of successful measurements along
// with their indices into the original slice.
func Vectors(ms []Measurement) (vs []metrics.Vector, idx []int) {
	for i, m := range ms {
		if m.Err == nil {
			vs = append(vs, m.Vector)
			idx = append(idx, i)
		}
	}
	return vs, idx
}

// Characterization is the fitted §IV model for one suite.
type Characterization struct {
	Measurements []Measurement
	PCA          *pca.Result
	TopPCs       int
	Features     [][]float64 // workloads projected onto the top PCs
	Dendrogram   *cluster.Dendrogram
	Linkage      cluster.Linkage
}

// Characterize fits PCA on the 24-metric vectors, keeps the top topPCs
// principal components (the paper uses four, covering ~79% of variance),
// and hierarchically clusters the workloads in that space.
func Characterize(ms []Measurement, topPCs int, linkage cluster.Linkage) (*Characterization, error) {
	vs, _ := Vectors(ms)
	if len(vs) < 2 {
		return nil, fmt.Errorf("core: need at least 2 successful measurements, got %d", len(vs))
	}
	fit, err := pca.Fit(metrics.Matrix(vs))
	if err != nil {
		return nil, fmt.Errorf("core: PCA failed: %w", err)
	}
	if topPCs <= 0 {
		topPCs = 4
	}
	features := fit.TopScores(topPCs)
	dend, err := cluster.Agglomerate(features, linkage)
	if err != nil {
		return nil, fmt.Errorf("core: clustering failed: %w", err)
	}
	return &Characterization{
		Measurements: ms,
		PCA:          fit,
		TopPCs:       topPCs,
		Features:     features,
		Dendrogram:   dend,
		Linkage:      linkage,
	}, nil
}

// Subset returns the representative subset of size k: the paper's
// "pick one benchmark from each of the nodes at a given [tree] level",
// with the medoid as the deterministic per-cluster pick. Returned indices
// refer to the successful measurements in order.
func (c *Characterization) Subset(k int) []int {
	return c.Dendrogram.Representatives(c.Features, k)
}

// Clusters returns the k-cut cluster membership.
func (c *Characterization) Clusters(k int) [][]int {
	return c.Dendrogram.Cut(k)
}

// SubsetNames maps subset indices back to workload names.
func (c *Characterization) SubsetNames(idx []int) []string {
	vs := successful(c.Measurements)
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = vs[j].Workload.Name
	}
	return out
}

func successful(ms []Measurement) []Measurement {
	var out []Measurement
	for _, m := range ms {
		if m.Err == nil {
			out = append(out, m)
		}
	}
	return out
}

// GroupPCA runs PCA over a restricted metric group (the §V-C control-flow
// or memory metrics) and returns each workload's coordinates on the top
// two group components, for the Fig 5/6/7 scatter comparisons.
func GroupPCA(vs []metrics.Vector, ids []metrics.ID) (*pca.Result, [][]float64, error) {
	fit, err := pca.Fit(metrics.SelectMatrix(vs, ids))
	if err != nil {
		return nil, nil, err
	}
	return fit, fit.TopScores(2), nil
}

// SpreadRatio compares the dispersion of two suites in a shared PCA space:
// it fits PCA on the concatenation, projects both, and returns the ratio
// of per-component standard deviations (suite A over suite B) for the top
// two components — the paper's "standard variation of SPEC CPU17 programs
// is 5.73x that of the .NET" style numbers.
func SpreadRatio(a, b []metrics.Vector, ids []metrics.ID) (ratioPC1, ratioPC2 float64, err error) {
	all := append(append([]metrics.Vector{}, a...), b...)
	fit, err := pca.Fit(metrics.SelectMatrix(all, ids))
	if err != nil {
		return 0, 0, err
	}
	scores := fit.TopScores(2)
	var a1, a2, b1, b2 []float64
	for i := range a {
		a1 = append(a1, scores[i][0])
		a2 = append(a2, scores[i][1])
	}
	for i := len(a); i < len(all); i++ {
		b1 = append(b1, scores[i][0])
		b2 = append(b2, scores[i][1])
	}
	sb1, sb2 := stats.StdDev(b1), stats.StdDev(b2)
	if sb1 == 0 || sb2 == 0 {
		return 0, 0, fmt.Errorf("core: degenerate spread in reference suite")
	}
	return stats.StdDev(a1) / sb1, stats.StdDev(a2) / sb2, nil
}

// ExecutionTimes extracts per-workload wall-clock times (seconds) from
// measurements, the inputs to subset validation scores. Failed workloads
// yield 0 and should be filtered by the caller.
func ExecutionTimes(ms []Measurement) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		if m.Err == nil && m.Result != nil {
			out[i] = m.Result.Counters.WallSeconds * m.Workload.InstructionScale
		}
	}
	return out
}
