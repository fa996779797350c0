package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"modeldata/internal/rng"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecApproxEq(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !approxEq(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

// fromRows builds a matrix from equal-length rows.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

func identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// dense expands a tridiagonal system into a dense matrix.
func dense(t *Tridiagonal) *Matrix {
	n := t.N()
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, t.Diag[i])
		if i > 0 {
			m.Set(i, i-1, t.Sub[i-1])
		}
		if i < n-1 {
			m.Set(i, i+1, t.Super[i])
		}
	}
	return m
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("Set/At mismatch")
	}
}

func TestMulIdentity(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	i2 := identity(2)
	p, err := a.Mul(i2)
	if err != nil {
		t.Fatal(err)
	}
	if !vecApproxEq(p.Data, a.Data, 0) {
		t.Fatal("A·I != A")
	}
}

func TestMulKnown(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := fromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	p, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	if !vecApproxEq(p.Data, want, 1e-12) {
		t.Fatalf("A·B = %v, want %v", p.Data, want)
	}
}

func TestMulShapeError(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); !errors.Is(err, ErrShape) {
		t.Fatalf("got %v, want ErrShape", err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		m := NewMatrix(3, 4)
		for i := range m.Data {
			m.Data[i] = r.Normal(0, 1)
		}
		tt := m.T().T()
		return vecApproxEq(tt.Data, m.Data, 0)
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSolveRoundTrip(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 5
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = r.Normal(0, 1)
		}
		// Diagonal dominance guarantees nonsingularity.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = r.Normal(0, 2)
		}
		b, _ := a.MulVec(xTrue)
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		return vecApproxEq(x, xTrue, 1e-8)
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSolveSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("got %v, want ErrSingular", err)
	}
}

func TestInverse(t *testing.T) {
	a := fromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := a.Mul(inv)
	if !vecApproxEq(p.Data, identity(2).Data, 1e-12) {
		t.Fatalf("A·A⁻¹ = %v", p.Data)
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 4
		// Build SPD matrix as BᵀB + n·I.
		b := NewMatrix(n, n)
		for i := range b.Data {
			b.Data[i] = r.Normal(0, 1)
		}
		bt := b.T()
		a, _ := bt.Mul(b)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		lt := l.T()
		back, _ := l.Mul(lt)
		if !vecApproxEq(back.Data, a.Data, 1e-9) {
			return false
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = r.Normal(0, 1)
		}
		rhs, _ := a.MulVec(xTrue)
		x, err := CholeskySolve(l, rhs)
		return err == nil && vecApproxEq(x, xTrue, 1e-8)
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("got %v, want ErrNotPositiveDefinite", err)
	}
}

func TestThomasMatchesDenseSolve(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 20
		tri := &Tridiagonal{
			Sub:   make([]float64, n-1),
			Diag:  make([]float64, n),
			Super: make([]float64, n-1),
		}
		for i := 0; i < n-1; i++ {
			tri.Sub[i] = r.Normal(0, 1)
			tri.Super[i] = r.Normal(0, 1)
		}
		for i := 0; i < n; i++ {
			tri.Diag[i] = 5 + math.Abs(r.Normal(0, 1)) // diagonally dominant
		}
		d := make([]float64, n)
		for i := range d {
			d[i] = r.Normal(0, 3)
		}
		x1, err := tri.SolveThomas(d)
		if err != nil {
			return false
		}
		x2, err := Solve(dense(tri), d)
		if err != nil {
			return false
		}
		return vecApproxEq(x1, x2, 1e-9)
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestThomasResidual(t *testing.T) {
	n := 1000
	tri := splineLikeSystem(n)
	d := make([]float64, n)
	for i := range d {
		d[i] = math.Sin(float64(i) / 10)
	}
	x, err := tri.SolveThomas(d)
	if err != nil {
		t.Fatal(err)
	}
	ax, _ := tri.MulVec(x)
	if res := Norm2(Sub(ax, d)); res > 1e-9 {
		t.Fatalf("Thomas residual = %g", res)
	}
}

// splineLikeSystem builds the tridiagonal structure arising from natural
// cubic spline constants: diag 2(h_{i}+h_{i+1}), off-diagonals h.
func splineLikeSystem(n int) *Tridiagonal {
	tri := &Tridiagonal{
		Sub:   make([]float64, n-1),
		Diag:  make([]float64, n),
		Super: make([]float64, n-1),
	}
	for i := 0; i < n; i++ {
		tri.Diag[i] = 4
	}
	for i := 0; i < n-1; i++ {
		tri.Sub[i] = 1
		tri.Super[i] = 1
	}
	return tri
}

func TestTridiagonalValidate(t *testing.T) {
	bad := &Tridiagonal{Sub: []float64{1}, Diag: []float64{1, 2, 3}, Super: []float64{1, 1}}
	if err := bad.Validate(); !errors.Is(err, ErrShape) {
		t.Fatalf("got %v, want ErrShape", err)
	}
	empty := &Tridiagonal{}
	if err := empty.Validate(); !errors.Is(err, ErrShape) {
		t.Fatalf("got %v, want ErrShape", err)
	}
}

func TestTridiagonalSingular(t *testing.T) {
	tri := &Tridiagonal{Sub: []float64{0}, Diag: []float64{0, 1}, Super: []float64{0}}
	if _, err := tri.SolveThomas([]float64{1, 1}); !errors.Is(err, ErrSingular) {
		t.Fatalf("got %v, want ErrSingular", err)
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if !approxEq(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("Norm2 wrong")
	}
}

func TestOLSRecoversCoefficients(t *testing.T) {
	r := rng.New(99)
	n, p := 200, 3
	x := NewMatrix(n, p+1)
	beta := []float64{2, -1, 0.5, 3}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 1)
		for j := 1; j <= p; j++ {
			x.Set(i, j, r.Normal(0, 1))
		}
		y[i] = Dot(x.Data[i*x.Cols:(i+1)*x.Cols], beta) + r.Normal(0, 0.01)
	}
	got, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !vecApproxEq(got, beta, 0.01) {
		t.Fatalf("OLS = %v, want ≈ %v", got, beta)
	}
}

func TestOLSUnderdetermined(t *testing.T) {
	x := NewMatrix(2, 3)
	if _, err := OLS(x, []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("got %v, want ErrShape", err)
	}
}
