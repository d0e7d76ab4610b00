// Package stats implements the descriptive statistics the characterization
// pipeline needs: means (arithmetic and geometric), variance, standard
// deviation, Pearson correlation, and z-score standardization of metric
// matrices. It is built only on the Go standard library because the paper's
// statistical machinery (PCA inputs, SPECspeed-style composite scores,
// correlation studies) must run offline.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (divides by n, matching
// the convention PCA uses on standardized data). Returns 0 for n < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n)
}

// SampleVariance returns the unbiased sample variance (divides by n-1).
func SampleVariance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n-1)
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// SampleStdDev returns the sample standard deviation.
func SampleStdDev(xs []float64) float64 { return math.Sqrt(SampleVariance(xs)) }

// GeoMean returns the geometric mean of xs. All inputs must be positive;
// non-positive values are clamped to a tiny epsilon so that a single zero
// counter (common for LLC MPKI of cache-resident microbenchmarks) does not
// collapse the composite to zero, mirroring how SPEC-style scoring treats
// measured ratios.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	const eps = 1e-12
	sum := 0.0
	for _, x := range xs {
		if x < eps {
			x = eps
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Min returns the minimum of xs. It panics on empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs without modifying the input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Covariance returns the population covariance of xs and ys.
// It panics if the lengths differ.
func Covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Covariance length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	sum := 0.0
	for i := range xs {
		sum += (xs[i] - mx) * (ys[i] - my)
	}
	return sum / float64(n)
}

// Pearson returns the Pearson correlation coefficient of xs and ys in
// [-1, 1]. If either series has zero variance the correlation is defined
// as 0 (no linear relationship can be established), which is the behaviour
// the runtime-event correlation study needs for quiet counters.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0
	}
	r := Covariance(xs, ys) / (sx * sy)
	// Numerical safety: clamp tiny overshoots.
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return r
}

// Standardize z-scores each column of the row-major matrix rows in place
// semantics-free: it returns a new matrix where each column has zero mean
// and unit population standard deviation. Columns with zero variance are
// left at zero (they carry no information for PCA). It also returns the
// per-column means and standard deviations so callers can project new data
// into the same standardized space.
func Standardize(rows [][]float64) (out [][]float64, means, stds []float64) {
	if len(rows) == 0 {
		return nil, nil, nil
	}
	cols := len(rows[0])
	for _, r := range rows {
		if len(r) != cols {
			panic("stats: Standardize ragged matrix")
		}
	}
	means = make([]float64, cols)
	stds = make([]float64, cols)
	col := make([]float64, len(rows))
	for j := 0; j < cols; j++ {
		for i := range rows {
			col[i] = rows[i][j]
		}
		means[j] = Mean(col)
		stds[j] = StdDev(col)
	}
	out = make([][]float64, len(rows))
	for i := range rows {
		out[i] = make([]float64, cols)
		for j := 0; j < cols; j++ {
			if stds[j] == 0 {
				out[i][j] = 0
				continue
			}
			out[i][j] = (rows[i][j] - means[j]) / stds[j]
		}
	}
	return out, means, stds
}

// Euclidean returns the Euclidean distance between two equal-length vectors.
func Euclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: Euclidean length mismatch")
	}
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Normalize scales xs so the values sum to 1; a zero-sum input is returned
// unchanged. Useful for converting instruction-type counts to fractions.
func Normalize(xs []float64) []float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	out := make([]float64, len(xs))
	if sum == 0 {
		copy(out, xs)
		return out
	}
	for i, x := range xs {
		out[i] = x / sum
	}
	return out
}

// ranks assigns average ranks to xs (ties share the mean of their ranks),
// the standard preparation for Spearman correlation.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		//charnet:ignore floateq rank ties are exact duplicates by definition; a tolerance would merge distinct values
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// Spearman returns the Spearman rank correlation coefficient of xs and ys:
// Pearson correlation over average ranks. It is robust to outliers and to
// monotone-but-nonlinear relationships, making it a useful cross-check for
// the runtime-event correlation study.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Spearman length mismatch")
	}
	if len(xs) < 2 {
		return 0
	}
	return Pearson(ranks(xs), ranks(ys))
}
