// Package linalg provides the small dense linear-algebra kernel the PCA
// implementation needs: a row-major matrix type, covariance computation,
// and a cyclic Jacobi eigendecomposition for real symmetric matrices.
//
// The metric matrices in this reproduction are tiny (at most a few dozen
// columns), so clarity and numerical robustness win over asymptotic
// cleverness. Jacobi rotation is the textbook choice for small symmetric
// eigenproblems: unconditionally stable, and the accumulated rotation
// matrix directly yields the orthonormal eigenvectors PCA uses as loading
// factors.
package linalg

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Matrix is a dense, row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic("linalg: FromRows ragged input")
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Transpose returns a new transposed matrix.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns m * other. It panics on a shape mismatch.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch (%dx%d)*(%dx%d)", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < other.Cols; j++ {
				out.Data[i*out.Cols+j] += a * other.At(k, j)
			}
		}
	}
	return out
}

// MulVec returns m * v for a column vector v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic("linalg: MulVec shape mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		sum := 0.0
		for j := 0; j < m.Cols; j++ {
			sum += m.At(i, j) * v[j]
		}
		out[i] = sum
	}
	return out
}

// IsSymmetric reports whether the matrix is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "%10.4f ", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Covariance returns the population covariance matrix (Cols x Cols) of the
// row-major data matrix, treating rows as observations.
func Covariance(data *Matrix) *Matrix {
	n, p := data.Rows, data.Cols
	cov := NewMatrix(p, p)
	if n < 2 {
		return cov
	}
	means := make([]float64, p)
	for j := 0; j < p; j++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += data.At(i, j)
		}
		means[j] = sum / float64(n)
	}
	for a := 0; a < p; a++ {
		for b := a; b < p; b++ {
			sum := 0.0
			for i := 0; i < n; i++ {
				sum += (data.At(i, a) - means[a]) * (data.At(i, b) - means[b])
			}
			v := sum / float64(n)
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return cov
}

// EigenSym computes the eigendecomposition of a real symmetric matrix using
// the cyclic Jacobi method. It returns eigenvalues in descending order and
// the corresponding orthonormal eigenvectors as the COLUMNS of the returned
// matrix. The input is not modified.
//
// Convergence: the off-diagonal Frobenius norm decreases quadratically; for
// the ≤ 30x30 matrices PCA produces here, convergence to 1e-12 takes a
// handful of sweeps. The sweep limit guards against pathological input.
func EigenSym(a *Matrix) (values []float64, vectors *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("linalg: EigenSym requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if !a.IsSymmetric(1e-9) {
		return nil, nil, fmt.Errorf("linalg: EigenSym requires a symmetric matrix")
	}
	n := a.Rows
	work := a.Clone()
	v := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}

	// Rows are slices of work.Data and v.Data. Every PCA result depends
	// on the bits this loop computes, so TestEigenSymBitsPinned holds its
	// arithmetic and the order of it fixed.
	w, vd := work.Data, v.Data
	offDiag := func() float64 {
		sum := 0.0
		for i := 0; i < n; i++ {
			row := w[i*n : i*n+n]
			for j := i + 1; j < n; j++ {
				x := row[j]
				sum += x * x
			}
		}
		return math.Sqrt(sum)
	}

	const maxSweeps = 100
	const tol = 1e-12
	for sweep := 0; sweep < maxSweeps; sweep++ {
		if offDiag() < tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				rp, rq := w[p*n:p*n+n], w[q*n:q*n+n]
				apq := rp[q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := rp[p]
				aqq := rq[q]
				// Compute the Jacobi rotation that zeroes (p, q).
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c

				// Apply rotation to work = J^T * work * J.
				for k := 0; k < n; k++ {
					row := w[k*n : k*n+n]
					akp := row[p]
					akq := row[q]
					row[p] = c*akp - s*akq
					row[q] = s*akp + c*akq
				}
				rq = rq[:len(rp)] // drops the bounds checks on rq[k]
				for k, apk := range rp {
					aqk := rq[k]
					rp[k] = c*apk - s*aqk
					rq[k] = s*apk + c*aqk
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					row := vd[k*n : k*n+n]
					vkp := row[p]
					vkq := row[q]
					row[p] = c*vkp - s*vkq
					row[q] = s*vkp + c*vkq
				}
			}
		}
	}

	// Extract eigenvalues from the (now nearly) diagonal work matrix and
	// sort eigenpairs by descending eigenvalue.
	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{work.At(i, i), i}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].val > pairs[j].val })

	values = make([]float64, n)
	vectors = NewMatrix(n, n)
	for newIdx, p := range pairs {
		values[newIdx] = p.val
		for k := 0; k < n; k++ {
			vectors.Set(k, newIdx, v.At(k, p.idx))
		}
	}
	// Deterministic sign convention: make the largest-magnitude component
	// of each eigenvector positive so repeated runs produce identical
	// loading tables.
	for j := 0; j < n; j++ {
		maxAbs, maxK := 0.0, 0
		for k := 0; k < n; k++ {
			if a := math.Abs(vectors.At(k, j)); a > maxAbs {
				maxAbs, maxK = a, k
			}
		}
		if vectors.At(maxK, j) < 0 {
			for k := 0; k < n; k++ {
				vectors.Set(k, j, -vectors.At(k, j))
			}
		}
	}
	return values, vectors, nil
}
