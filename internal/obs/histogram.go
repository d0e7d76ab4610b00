package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucketing: log-linear, HDR-style. Values below histSubCount
// land in exact unit-wide buckets; above that, each power-of-two octave is
// split into histSubCount linear sub-buckets, so every bucket's width is
// at most 1/histSubCount of its lower bound. A quantile interpolated
// inside a bucket is therefore within ~6.25% relative error of the true
// sample — tight enough to read p99 tails off a fixed 960-cell array with
// no per-record allocation.
const (
	histSubBits    = 4
	histSubCount   = 1 << histSubBits // linear sub-buckets per octave
	histNumBuckets = 960              // covers [0, 1<<63) nanoseconds
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	e := uint(bits.Len64(v)) - 1 - histSubBits
	return int(e)*histSubCount + int(v>>e)
}

// bucketLow returns the inclusive lower bound of bucket i. The exclusive
// upper bound is bucketLow(i+1); i == histNumBuckets yields 1<<63, which
// is why bounds are uint64.
func bucketLow(i int) uint64 {
	if i < histSubCount {
		return uint64(i)
	}
	e := uint(i/histSubCount) - 1
	sub := uint64(i%histSubCount + histSubCount)
	return sub << e
}

// A Histogram is one distribution-valued metric: a lock-free log-linear
// latency histogram with exact count/sum/min/max. The record path is a
// handful of atomic adds (plus bounded CAS loops for min/max), so
// concurrent workers can record without serializing on the trace lock; a
// nil *Histogram no-ops, matching the package's disabled-state contract.
// Values are nanoseconds by convention (Trace.Observe records durations).
type Histogram struct {
	name    string
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histNumBuckets]atomic.Int64
}

func newHistogram(name string) *Histogram {
	h := &Histogram{name: name}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value. Negative values clamp to zero (a histogram
// of durations has no negative samples; a clock that steps backwards
// under test should not corrupt bucket indexing).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketIndex(uint64(v))].Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// HistogramBucket is one non-empty bucket of a snapshot: the half-open
// value range [Lo, Hi) in nanoseconds and the sample count inside it.
type HistogramBucket struct {
	Lo, Hi float64
	Count  int64
}

// HistogramSnapshot is a point-in-time copy of one histogram. Count is
// the sum of the bucket counts, so quantiles computed from the snapshot
// are internally consistent even if it was taken while writers were
// recording; Sum/Min/Max are exact once recording has quiesced.
type HistogramSnapshot struct {
	Name  string
	Count int64
	Sum   int64 // nanoseconds
	Min   int64 // nanoseconds; 0 when Count == 0
	Max   int64 // nanoseconds; 0 when Count == 0
	// Buckets holds the non-empty buckets in ascending value order.
	Buckets []HistogramBucket
}

// Snapshot copies the histogram's current state (zero value on nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Name: h.name}
	for i := 0; i < histNumBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		s.Count += c
		s.Buckets = append(s.Buckets, HistogramBucket{
			Lo:    float64(bucketLow(i)),
			Hi:    float64(bucketLow(i + 1)),
			Count: c,
		})
	}
	if s.Count > 0 {
		s.Sum = h.sum.Load()
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) in nanoseconds by linear
// interpolation within the covering bucket, clamped to [Min, Max] — so
// p0 is the exact minimum, p100 the exact maximum, and any interior
// quantile is within one bucket width (≤ ~6.25% relative) of the truth.
// An empty snapshot yields 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return float64(s.Min)
	}
	if q >= 1 {
		return float64(s.Max)
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for _, b := range s.Buckets {
		c := float64(b.Count)
		if cum+c >= rank {
			v := b.Lo + (b.Hi-b.Lo)*(rank-cum)/c
			return math.Min(math.Max(v, float64(s.Min)), float64(s.Max))
		}
		cum += c
	}
	return float64(s.Max)
}

// Mean returns the arithmetic mean in nanoseconds (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Histogram returns the named histogram, creating it on first use. The
// common path is a read-locked map hit; callers on hot paths may also
// cache the returned pointer. Nil trace returns a nil (inert) histogram.
func (t *Trace) Histogram(name string) *Histogram {
	if t == nil {
		return nil
	}
	t.histMu.RLock()
	h := t.histograms[name]
	t.histMu.RUnlock()
	if h != nil {
		return h
	}
	t.histMu.Lock()
	defer t.histMu.Unlock()
	if h = t.histograms[name]; h == nil {
		h = newHistogram(name)
		t.histograms[name] = h
	}
	return h
}

// Observe records a duration into the named histogram. The nil-trace path
// is allocation-free, so instrumented code calls it unconditionally.
func (t *Trace) Observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.Histogram(name).ObserveDuration(d)
}

// CounterValue is one named counter in a metrics snapshot.
type CounterValue struct {
	Name  string
	Value int64
}

// GaugeValue is one named gauge in a metrics snapshot.
type GaugeValue struct {
	Name  string
	Value float64
}

// MetricsSnapshot is the full metric state of a trace — counters, gauges
// and histograms — with every section sorted by name, so exposition
// writers and exporters are deterministic without re-sorting.
type MetricsSnapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramSnapshot
}

// Metrics snapshots all counters, gauges and histograms in sorted name
// order (zero value on nil).
func (t *Trace) Metrics() MetricsSnapshot {
	if t == nil {
		return MetricsSnapshot{}
	}
	var snap MetricsSnapshot
	t.mu.Lock()
	counters := make(map[string]int64, len(t.counters))
	for k, v := range t.counters {
		counters[k] = v
	}
	gauges := make(map[string]float64, len(t.gauges))
	for k, v := range t.gauges {
		gauges[k] = v
	}
	t.mu.Unlock()
	for _, name := range sortedKeys(counters) {
		snap.Counters = append(snap.Counters, CounterValue{Name: name, Value: counters[name]})
	}
	for _, name := range sortedKeys(gauges) {
		snap.Gauges = append(snap.Gauges, GaugeValue{Name: name, Value: gauges[name]})
	}
	t.histMu.RLock()
	hs := make(map[string]*Histogram, len(t.histograms))
	for k, v := range t.histograms {
		hs[k] = v
	}
	t.histMu.RUnlock()
	for _, name := range sortedKeys(hs) {
		snap.Histograms = append(snap.Histograms, hs[name].Snapshot())
	}
	return snap
}
