package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almost(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almost(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if Variance([]float64{5}) != 0 {
		t.Fatal("Variance of single element should be 0")
	}
}

func TestSampleVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := SampleVariance(xs); !almost(got, 2.5, 1e-12) {
		t.Fatalf("SampleVariance = %v, want 2.5", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4, 16}); !almost(got, 4, 1e-9) {
		t.Fatalf("GeoMean = %v, want 4", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) != 0")
	}
	// Zero values are clamped, not collapsing to 0.
	if GeoMean([]float64{0, 100}) <= 0 {
		t.Fatal("GeoMean with zero element should stay positive")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almost(got, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almost(got, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", got)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("Pearson with constant series = %v, want 0", got)
	}
}

func TestPearsonBoundsProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		p := Pearson(xs, ys)
		return p >= -1 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonSymmetryProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
			ys[i] = r.Float64() * 100
		}
		return almost(Pearson(xs, ys), Pearson(ys, xs), 1e-12)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCovariance(t *testing.T) {
	xs := []float64{1, 2, 3}
	ys := []float64{4, 6, 8}
	// cov = mean((x-2)(y-6)) = (2+0+2)/3
	if got := Covariance(xs, ys); !almost(got, 4.0/3.0, 1e-12) {
		t.Fatalf("Covariance = %v", got)
	}
}

func TestStandardize(t *testing.T) {
	rows := [][]float64{{1, 10, 5}, {2, 20, 5}, {3, 30, 5}}
	out, means, stds := Standardize(rows)
	if !almost(means[0], 2, 1e-12) || !almost(means[1], 20, 1e-12) {
		t.Fatalf("means = %v", means)
	}
	// Column 2 is constant: std 0 and outputs 0.
	if stds[2] != 0 {
		t.Fatalf("constant column std = %v", stds[2])
	}
	for i := range out {
		if out[i][2] != 0 {
			t.Fatal("constant column should standardize to 0")
		}
	}
	// Standardized columns: mean 0, std 1.
	for j := 0; j < 2; j++ {
		col := []float64{out[0][j], out[1][j], out[2][j]}
		if !almost(Mean(col), 0, 1e-12) {
			t.Fatalf("col %d mean %v", j, Mean(col))
		}
		if !almost(StdDev(col), 1, 1e-12) {
			t.Fatalf("col %d std %v", j, StdDev(col))
		}
	}
}

func TestStandardizeProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		n := 4 + r.Intn(30)
		m := 2 + r.Intn(10)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, m)
			for j := range rows[i] {
				rows[i][j] = r.NormFloat64()*10 + 50
			}
		}
		out, _, stds := Standardize(rows)
		for j := 0; j < m; j++ {
			col := make([]float64, n)
			for i := range out {
				col[i] = out[i][j]
			}
			if stds[j] > 0 {
				if !almost(Mean(col), 0, 1e-9) || !almost(StdDev(col), 1, 1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Pearson":    func() { Pearson([]float64{1}, []float64{1, 2}) },
		"Covariance": func() { Covariance([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic on length mismatch", name)
				}
			}()
			f()
		}()
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// A nonlinear but monotone relationship: Spearman = 1, Pearson < 1.
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{1, 8, 27, 64, 125, 216}
	if got := Spearman(xs, ys); !almost(got, 1, 1e-12) {
		t.Fatalf("Spearman = %v, want 1", got)
	}
	if p := Pearson(xs, ys); p >= 1-1e-9 {
		t.Fatalf("Pearson = %v should be < 1 for cubic", p)
	}
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ys := []float64{10, 20, 20, 30}
	if got := Spearman(xs, ys); !almost(got, 1, 1e-12) {
		t.Fatalf("Spearman with ties = %v", got)
	}
}

func TestSpearmanOutlierRobust(t *testing.T) {
	r := rng.New(42)
	n := 60
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(i) + r.NormFloat64()*0.1
	}
	ys[0] = 1e9 // a single wild outlier
	s := Spearman(xs, ys)
	p := Pearson(xs, ys)
	if s < 0.9 {
		t.Fatalf("Spearman %v should resist the outlier", s)
	}
	if p > 0.5 {
		t.Fatalf("Pearson %v should be wrecked by the outlier (sanity)", p)
	}
}

func TestSpearmanBoundsProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		s := Spearman(xs, ys)
		return s >= -1 && s <= 1 && !math.IsNaN(s)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpearmanDegenerate(t *testing.T) {
	if Spearman([]float64{1}, []float64{2}) != 0 {
		t.Fatal("single sample should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	Spearman([]float64{1, 2}, []float64{1})
}
