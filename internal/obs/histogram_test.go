package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries pins the log-linear bucketing scheme: indices are
// monotone, bucket bounds tile the value space with no gaps, every value
// lands inside its own bucket, and the relative bucket width above the
// linear range is at most 1/histSubCount.
func TestBucketBoundaries(t *testing.T) {
	// The linear range is exact.
	for v := uint64(0); v < histSubCount; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Fatalf("bucketIndex(%d) = %d, want %d", v, got, v)
		}
	}
	// Bounds tile: bucketLow(i) < bucketLow(i+1), and boundary values land
	// in the bucket whose Lo they are.
	for i := 0; i < histNumBuckets; i++ {
		lo, hi := bucketLow(i), bucketLow(i+1)
		if lo >= hi {
			t.Fatalf("bucket %d: lo %d >= hi %d", i, lo, hi)
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(lo=%d) = %d, want %d", lo, got, i)
		}
		if got := bucketIndex(hi - 1); got != i {
			t.Fatalf("bucketIndex(hi-1=%d) = %d, want %d", hi-1, got, i)
		}
		if i >= histSubCount {
			if width := float64(hi-lo) / float64(lo); width > 1.0/histSubCount+1e-12 {
				t.Fatalf("bucket %d: relative width %.4f exceeds 1/%d", i, width, histSubCount)
			}
		}
	}
	// The top bucket covers the largest recordable value.
	if got := bucketIndex(math.MaxInt64); got != histNumBuckets-1 {
		t.Fatalf("bucketIndex(MaxInt64) = %d, want %d", got, histNumBuckets-1)
	}
}

func TestHistogramExactAggregates(t *testing.T) {
	h := newHistogram("x")
	vals := []int64{5, 5, 17, 1000, 123456, 7_000_000_000, 0, -3}
	var sum int64
	for _, v := range vals {
		h.Observe(v)
		if v < 0 {
			v = 0 // negative clamps
		}
		sum += v
	}
	s := h.Snapshot()
	if s.Count != int64(len(vals)) {
		t.Errorf("count = %d, want %d", s.Count, len(vals))
	}
	if s.Sum != sum {
		t.Errorf("sum = %d, want %d", s.Sum, sum)
	}
	if s.Min != 0 || s.Max != 7_000_000_000 {
		t.Errorf("min/max = %d/%d, want 0/7000000000", s.Min, s.Max)
	}
	for i := 1; i < len(s.Buckets); i++ {
		if s.Buckets[i-1].Hi > s.Buckets[i].Lo {
			t.Errorf("buckets out of order: %+v then %+v", s.Buckets[i-1], s.Buckets[i])
		}
	}
}

// TestQuantileAccuracy pins the estimation error bound: for uniform and
// for heavily skewed inputs, every interior quantile is within one bucket
// width (≤ 1/histSubCount relative, plus interpolation slack) of the true
// order statistic.
func TestQuantileAccuracy(t *testing.T) {
	const n = 20000
	h := newHistogram("q")
	for i := 1; i <= n; i++ {
		h.Observe(int64(i) * 1000) // 1µs .. 20ms, uniform
	}
	s := h.Snapshot()
	for _, q := range []float64{0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 0.999} {
		got := s.Quantile(q)
		want := q * n * 1000
		if rel := math.Abs(got-want) / want; rel > 1.0/histSubCount {
			t.Errorf("uniform q=%.3f: got %.0f want %.0f (rel err %.4f)", q, got, want, rel)
		}
	}
	if s.Quantile(0) != float64(s.Min) || s.Quantile(1) != float64(s.Max) {
		t.Errorf("q0/q1 should be exact min/max: %v/%v vs %d/%d",
			s.Quantile(0), s.Quantile(1), s.Min, s.Max)
	}

	// Skewed: 99% fast (10µs), 1% slow (10ms). p50 must sit in the fast
	// mode, p99.9 in the slow tail.
	h2 := newHistogram("skew")
	for i := 0; i < 9900; i++ {
		h2.Observe(10_000)
	}
	for i := 0; i < 100; i++ {
		h2.Observe(10_000_000)
	}
	s2 := h2.Snapshot()
	if p50 := s2.Quantile(0.5); p50 > 11_000 {
		t.Errorf("skewed p50 = %.0f, want ~10000", p50)
	}
	if p999 := s2.Quantile(0.999); p999 < 9_000_000 {
		t.Errorf("skewed p99.9 = %.0f, want ~10000000", p999)
	}
}

func TestQuantileEmpty(t *testing.T) {
	var s HistogramSnapshot
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty snapshot quantile/mean should be 0")
	}
}

// TestHistogramConcurrentRecord drives the atomic record path from many
// goroutines; count and sum must be exact afterwards (run under -race in
// the full gate).
func TestHistogramConcurrentRecord(t *testing.T) {
	tr := New(WithClock(newFakeClock(time.Microsecond)))
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := tr.Histogram("conc")
			for i := int64(0); i < perWorker; i++ {
				h.Observe(seed + i)
				tr.Observe("conc.via-trace", time.Duration(i))
			}
		}(int64(w))
	}
	wg.Wait()
	for _, name := range []string{"conc", "conc.via-trace"} {
		s := tr.Histogram(name).Snapshot()
		if s.Count != workers*perWorker {
			t.Errorf("%s: count = %d, want %d", name, s.Count, workers*perWorker)
		}
	}
	var wantSum int64
	for w := int64(0); w < workers; w++ {
		for i := int64(0); i < perWorker; i++ {
			wantSum += w + i
		}
	}
	if s := tr.Histogram("conc").Snapshot(); s.Sum != wantSum {
		t.Errorf("sum = %d, want %d", s.Sum, wantSum)
	}
}

// TestMetricsSnapshotSorted: every section of Metrics() comes back in
// sorted name order regardless of creation order.
func TestMetricsSnapshotSorted(t *testing.T) {
	tr := New(WithClock(newFakeClock(time.Microsecond)))
	tr.Add("z.counter", 1)
	tr.Add("a.counter", 2)
	tr.Gauge("z.gauge", 1)
	tr.Gauge("a.gauge", 2)
	tr.Observe("z.hist", time.Millisecond)
	tr.Observe("a.hist", time.Millisecond)
	snap := tr.Metrics()
	if len(snap.Counters) != 2 || snap.Counters[0].Name != "a.counter" || snap.Counters[1].Name != "z.counter" {
		t.Errorf("counters unsorted: %+v", snap.Counters)
	}
	if len(snap.Gauges) != 2 || snap.Gauges[0].Name != "a.gauge" {
		t.Errorf("gauges unsorted: %+v", snap.Gauges)
	}
	if len(snap.Histograms) != 2 || snap.Histograms[0].Name != "a.hist" || snap.Histograms[1].Name != "z.hist" {
		t.Errorf("histograms unsorted: %+v", snap.Histograms)
	}
}

func TestHistogramNilSafety(t *testing.T) {
	var tr *Trace
	tr.Observe("h", time.Second)
	h := tr.Histogram("h")
	if h != nil {
		t.Fatal("nil trace should hand out a nil histogram")
	}
	h.Observe(1)
	h.ObserveDuration(time.Second)
	s := h.Snapshot()
	if s.Count != 0 || len(s.Buckets) != 0 {
		t.Fatal("nil histogram snapshot should be empty")
	}
	if snap := tr.Metrics(); len(snap.Histograms) != 0 || len(snap.Counters) != 0 {
		t.Fatal("nil trace Metrics should be empty")
	}
}
