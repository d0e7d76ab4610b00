package linalg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("At/Set broken")
	}
	r := m.Row(1)
	if len(r) != 3 || r[2] != 5 {
		t.Fatalf("Row = %v", r)
	}
	c := m.Col(2)
	if len(c) != 2 || c[1] != 5 {
		t.Fatalf("Col = %v", c)
	}
}

func TestFromRowsAndClone(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	cl := m.Clone()
	cl.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("Transpose wrong: %v", tr)
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	v := a.MulVec([]float64{1, 1})
	if v[0] != 3 || v[1] != 7 {
		t.Fatalf("MulVec = %v", v)
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

func TestCovarianceKnown(t *testing.T) {
	// Two perfectly correlated columns.
	data := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	cov := Covariance(data)
	if !almost(cov.At(0, 0), 2.0/3.0, 1e-12) {
		t.Fatalf("var x = %v", cov.At(0, 0))
	}
	if !almost(cov.At(0, 1), 4.0/3.0, 1e-12) {
		t.Fatalf("cov = %v", cov.At(0, 1))
	}
	if !cov.IsSymmetric(1e-12) {
		t.Fatal("covariance not symmetric")
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, 1}})
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(vals[0], 3, 1e-10) || !almost(vals[1], 1, 1e-10) {
		t.Fatalf("vals = %v", vals)
	}
	// First eigenvector should be e1 (up to sign convention: made positive).
	if !almost(math.Abs(vecs.At(0, 0)), 1, 1e-10) {
		t.Fatalf("vecs = %v", vecs)
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(vals[0], 3, 1e-10) || !almost(vals[1], 1, 1e-10) {
		t.Fatalf("vals = %v", vals)
	}
	// Eigenvector for 3 is (1,1)/sqrt2.
	s := 1 / math.Sqrt(2)
	if !almost(vecs.At(0, 0), s, 1e-9) || !almost(vecs.At(1, 0), s, 1e-9) {
		t.Fatalf("vec0 = (%v, %v)", vecs.At(0, 0), vecs.At(1, 0))
	}
}

func TestEigenSymRejectsNonSquare(t *testing.T) {
	if _, _, err := EigenSym(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestEigenSymRejectsAsymmetric(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if _, _, err := EigenSym(a); err == nil {
		t.Fatal("expected error for asymmetric matrix")
	}
}

// randomSymmetric builds a random symmetric matrix from a seed.
func randomSymmetric(seed uint64, n int) *Matrix {
	r := rng.New(seed)
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64() * 3
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

func TestEigenSymReconstructionProperty(t *testing.T) {
	// A = V * diag(vals) * V^T must reconstruct the input.
	prop := func(seed uint64) bool {
		n := 2 + int(seed%7)
		a := randomSymmetric(seed, n)
		vals, vecs, err := EigenSym(a)
		if err != nil {
			return false
		}
		d := NewMatrix(n, n)
		for i, v := range vals {
			d.Set(i, i, v)
		}
		recon := vecs.Mul(d).Mul(vecs.Transpose())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almost(recon.At(i, j), a.At(i, j), 1e-7) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenSymOrthonormalProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		n := 2 + int(seed%8)
		a := randomSymmetric(seed^0xdeadbeef, n)
		_, vecs, err := EigenSym(a)
		if err != nil {
			return false
		}
		ident := vecs.Transpose().Mul(vecs)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if !almost(ident.At(i, j), want, 1e-8) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenSymTraceProperty(t *testing.T) {
	// Sum of eigenvalues equals the trace.
	prop := func(seed uint64) bool {
		n := 2 + int(seed%6)
		a := randomSymmetric(seed+17, n)
		vals, _, err := EigenSym(a)
		if err != nil {
			return false
		}
		trace, sum := 0.0, 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
		}
		for _, v := range vals {
			sum += v
		}
		return almost(trace, sum, 1e-8)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenSymDescendingOrder(t *testing.T) {
	a := randomSymmetric(5, 8)
	vals, _, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1]+1e-12 {
			t.Fatalf("eigenvalues not descending: %v", vals)
		}
	}
}

func TestEigenSymDeterministicSigns(t *testing.T) {
	a := randomSymmetric(9, 6)
	_, v1, _ := EigenSym(a)
	_, v2, _ := EigenSym(a.Clone())
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if v1.At(i, j) != v2.At(i, j) {
				t.Fatal("eigenvectors not deterministic across runs")
			}
		}
	}
}

// powerIterate computes the dominant eigenpair of a symmetric matrix by
// power iteration — an independent algorithm used to cross-check the
// Jacobi solver.
func powerIterate(a *Matrix, iters int) (float64, []float64) {
	n := a.Rows
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
	}
	for k := 0; k < iters; k++ {
		w := a.MulVec(v)
		norm := 0.0
		for _, x := range w {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 0, v
		}
		for i := range w {
			w[i] /= norm
		}
		v = w
	}
	// Rayleigh quotient.
	av := a.MulVec(v)
	lambda := 0.0
	for i := range v {
		lambda += v[i] * av[i]
	}
	return lambda, v
}

func TestEigenSymAgreesWithPowerIteration(t *testing.T) {
	// Cross-validate the Jacobi solver's dominant eigenpair against an
	// independent method on positive-definite matrices (where the
	// dominant eigenvalue is also the largest in magnitude).
	for seed := uint64(1); seed <= 20; seed++ {
		n := 2 + int(seed%6)
		base := randomSymmetric(seed, n)
		// Make it positive definite: A = B^T B + I.
		a := base.Transpose().Mul(base)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		vals, vecs, err := EigenSym(a)
		if err != nil {
			t.Fatal(err)
		}
		lambda, v := powerIterate(a, 500)
		if !almost(vals[0], lambda, 1e-6*math.Abs(lambda)+1e-8) {
			t.Fatalf("seed %d: Jacobi λ1=%v vs power iteration %v", seed, vals[0], lambda)
		}
		// Eigenvectors agree up to sign.
		dot := 0.0
		for i := 0; i < n; i++ {
			dot += v[i] * vecs.At(i, 0)
		}
		if math.Abs(math.Abs(dot)-1) > 1e-5 {
			t.Fatalf("seed %d: eigenvector disagreement |dot|=%v", seed, math.Abs(dot))
		}
	}
}

// eigenSymDigest is the SHA-256 of the Float64bits of every eigenvalue
// and eigenvector element EigenSym returns for the matrices of
// TestEigenSymBitsPinned.
const eigenSymDigest = "22a6ec16eca15f8ab12b9546fa99b3a8b7c41088a057f9d4fbc14c8b9aa3be2c"

// TestEigenSymBitsPinned: the Jacobi solver's arithmetic is part of every
// PCA output, so a change to it must reproduce the old results bit for
// bit. The matrices are seeded, from 2x2 to 24x24 (the metric count PCA
// fits), plus a 24x24 one with a zero row and column, which exercises
// the skipped rotations.
func TestEigenSymBitsPinned(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	solve := func(a *Matrix) {
		vals, vecs, err := EigenSym(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range vals {
			put(x)
		}
		for _, x := range vecs.Data {
			put(x)
		}
	}
	for seed := uint64(1); seed <= 46; seed++ {
		solve(randomSymmetric(seed, 2+int(seed%23)))
	}
	a := randomSymmetric(99, 24)
	for k := 0; k < 24; k++ {
		a.Set(7, k, 0)
		a.Set(k, 7, 0)
	}
	solve(a)
	if got := hex.EncodeToString(h.Sum(nil)); got != eigenSymDigest {
		t.Fatalf("EigenSym digest %s, want %s", got, eigenSymDigest)
	}
}

// BenchmarkEigenSym24 times one solve at the size PCA fits: the
// 24-metric correlation matrix.
func BenchmarkEigenSym24(b *testing.B) {
	a := randomSymmetric(7, 24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := EigenSym(a); err != nil {
			b.Fatal(err)
		}
	}
}
