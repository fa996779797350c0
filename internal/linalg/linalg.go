// Package linalg provides the small dense linear-algebra kernel used
// throughout the repository: vectors, dense matrices, LU and Cholesky
// factorizations, tridiagonal (Thomas) solves, and ordinary least
// squares. It is deliberately minimal — just enough to support cubic
// spline constants (§2.2 of the paper), kriging predictors (§4.1), and
// MSM weight matrices (§3.1) — and uses only the standard library.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrSingular is returned when a factorization or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// ErrNotPositiveDefinite is returned by Cholesky when the matrix is not
// positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: incompatible shapes")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len = Rows*Cols, row-major
}

// NewMatrix returns a zero matrix with the given shape. It panics if
// either dimension is negative.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: NewMatrix(%d, %d)", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("%w: (%d×%d)·(%d×%d)", ErrShape, m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 { // sparsity fast path: only an exact zero may skip, any other value must multiply
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a * b.At(k, j)
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if m.Cols != len(x) {
		return nil, fmt.Errorf("%w: (%d×%d)·vec(%d)", ErrShape, m.Rows, m.Cols, len(x))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Scale returns s·m as a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = s * m.Data[i]
	}
	return out
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%8.4g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// LU holds an LU factorization with partial pivoting: PA = LU.
type LU struct {
	lu  *Matrix
	piv []int
}

// FactorLU computes the LU factorization of a square matrix a with
// partial pivoting. It returns ErrSingular for singular input.
func FactorLU(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: LU of %d×%d", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Find pivot.
		p := k
		maxVal := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxVal {
				maxVal = v
				p = i
			}
		}
		if maxVal == 0 { // an exactly zero pivot column is the definition of singular here
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.Data[k*n+j], lu.Data[p*n+j] = lu.Data[p*n+j], lu.Data[k*n+j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivVal
			lu.Set(i, k, f)
			for j := k + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-f*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, piv: piv}, nil
}

// Solve solves A·x = b for x given the factorization.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: LU solve vec(%d) for n=%d", ErrShape, len(b), n)
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s / f.lu.At(i, i)
	}
	return x, nil
}

// Solve solves the linear system a·x = b.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Inverse returns the matrix inverse of a.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	inv := NewMatrix(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := f.Solve(e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// Cholesky computes the lower-triangular Cholesky factor L of a symmetric
// positive-definite matrix a, so that a = L·Lᵀ.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: Cholesky of %d×%d", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return nil, ErrNotPositiveDefinite
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// CholeskySolve solves A·x = b given the lower Cholesky factor L of A.
func CholeskySolve(l *Matrix, b []float64) ([]float64, error) {
	n := l.Rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: CholeskySolve vec(%d) for n=%d", ErrShape, len(b), n)
	}
	// Forward: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l.At(i, j) * y[j]
		}
		y[i] = s / l.At(i, i)
	}
	// Back: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= l.At(j, i) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// Tridiagonal represents a tridiagonal system with sub-diagonal a,
// diagonal b, and super-diagonal c. For an n×n system, len(b) = n,
// len(a) = len(c) = n−1. This is the structure of the natural cubic
// spline constant system of §2.2.
type Tridiagonal struct {
	Sub, Diag, Super []float64
}

// N returns the dimension of the system.
func (t *Tridiagonal) N() int { return len(t.Diag) }

// Validate checks band lengths.
func (t *Tridiagonal) Validate() error {
	n := len(t.Diag)
	if n == 0 {
		return fmt.Errorf("%w: empty tridiagonal system", ErrShape)
	}
	if len(t.Sub) != n-1 || len(t.Super) != n-1 {
		return fmt.Errorf("%w: tridiagonal bands sub=%d super=%d for n=%d",
			ErrShape, len(t.Sub), len(t.Super), n)
	}
	return nil
}

// MulVec computes the tridiagonal matrix-vector product.
func (t *Tridiagonal) MulVec(x []float64) ([]float64, error) {
	n := t.N()
	if len(x) != n {
		return nil, fmt.Errorf("%w: tridiagonal MulVec vec(%d) for n=%d", ErrShape, len(x), n)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		s := t.Diag[i] * x[i]
		if i > 0 {
			s += t.Sub[i-1] * x[i-1]
		}
		if i < n-1 {
			s += t.Super[i] * x[i+1]
		}
		out[i] = s
	}
	return out, nil
}

// SolveThomas solves the tridiagonal system T·x = d with the Thomas
// algorithm in O(n). It returns ErrSingular if elimination encounters a
// zero pivot. The Thomas algorithm is the exact baseline against which
// the paper's DSGD solver is compared.
func (t *Tridiagonal) SolveThomas(d []float64) ([]float64, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := t.N()
	if len(d) != n {
		return nil, fmt.Errorf("%w: Thomas solve vec(%d) for n=%d", ErrShape, len(d), n)
	}
	cp := make([]float64, n-1)
	dp := make([]float64, n)
	if t.Diag[0] == 0 { // exact-zero pivot guard before dividing
		return nil, ErrSingular
	}
	if n > 1 {
		cp[0] = t.Super[0] / t.Diag[0]
	}
	dp[0] = d[0] / t.Diag[0]
	for i := 1; i < n; i++ {
		denom := t.Diag[i] - t.Sub[i-1]*cp[i-1]
		if denom == 0 { // exact-zero pivot guard before dividing
			return nil, ErrSingular
		}
		if i < n-1 {
			cp[i] = t.Super[i] / denom
		}
		dp[i] = (d[i] - t.Sub[i-1]*dp[i-1]) / denom
	}
	x := make([]float64, n)
	x[n-1] = dp[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = dp[i] - cp[i]*x[i+1]
	}
	return x, nil
}

// Dot returns the inner product of two equal-length vectors. It panics
// on length mismatch (programmer error at all call sites).
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Sub returns a − b as a new vector.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Sub length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// OLS fits ordinary least squares: it returns beta minimizing
// ‖X·beta − y‖² via the normal equations solved with Cholesky (falling
// back to LU if XᵀX is not positive definite due to rounding).
func OLS(x *Matrix, y []float64) ([]float64, error) {
	if x.Rows != len(y) {
		return nil, fmt.Errorf("%w: OLS X is %d×%d, y has %d", ErrShape, x.Rows, x.Cols, len(y))
	}
	if x.Rows < x.Cols {
		return nil, fmt.Errorf("%w: OLS underdetermined: %d rows < %d cols", ErrShape, x.Rows, x.Cols)
	}
	xt := x.T()
	xtx, err := xt.Mul(x)
	if err != nil {
		return nil, err
	}
	xty, err := xt.MulVec(y)
	if err != nil {
		return nil, err
	}
	if l, err := Cholesky(xtx); err == nil {
		return CholeskySolve(l, xty)
	}
	return Solve(xtx, xty)
}
