package sgd

import (
	"errors"
	"math"
	"testing"

	"modeldata/internal/linalg"
	"modeldata/internal/rng"
)

// splineSystem builds the spline-like tridiagonal system used across
// the SGD tests, with a known solution.
func splineSystem(n int, seed uint64) (*linalg.Tridiagonal, []float64, []float64) {
	r := rng.New(seed)
	tri := &linalg.Tridiagonal{
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
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = r.Normal(0, 2)
	}
	b, err := tri.MulVec(xTrue)
	if err != nil {
		panic(err)
	}
	return tri, b, xTrue
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestSolveKaczmarzConverges(t *testing.T) {
	tri, b, xTrue := splineSystem(200, 1)
	x, stats, err := Solve(tri, b, Options{Epochs: 200, Kaczmarz: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(x, xTrue); d > 1e-6 {
		t.Fatalf("Kaczmarz SGD max error = %g (stats %v)", d, stats)
	}
}

func TestSolvePlainSGDReducesResidual(t *testing.T) {
	tri, b, _ := splineSystem(100, 2)
	// Residual at x = 0 is ‖b‖.
	res0 := linalg.Norm2(b)
	_, stats, err := Solve(tri, b, Options{Epochs: 500, Step0: 0.02, Alpha: 0.51, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Residual > res0/4 {
		t.Fatalf("plain SGD residual %g did not drop well below %g", stats.Residual, res0)
	}
}

func TestSolveDistributedMatchesThomas(t *testing.T) {
	tri, b, _ := splineSystem(3000, 3)
	exact, err := tri.SolveThomas(b)
	if err != nil {
		t.Fatal(err)
	}
	x, stats, err := SolveDistributed(tri, b, Options{Epochs: 150, Kaczmarz: true, Seed: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(x, exact); d > 1e-5 {
		t.Fatalf("DSGD max error vs Thomas = %g (stats %v)", d, stats)
	}
}

func TestDSGDShuffleNegligibleVsSGD(t *testing.T) {
	// The paper's claim: DSGD shuffles a negligible amount of data
	// compared with approaches that reshuffle the full iterate.
	tri, b, _ := splineSystem(10000, 4)
	_, sgdStats, err := Solve(tri, b, Options{Epochs: 20, Kaczmarz: true, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, dsgdStats, err := SolveDistributed(tri, b, Options{Epochs: 20, Kaczmarz: true, Seed: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if dsgdStats.ShuffleBytes*10 >= sgdStats.ShuffleBytes {
		t.Fatalf("DSGD shuffle %dB not ≪ SGD shuffle %dB",
			dsgdStats.ShuffleBytes, sgdStats.ShuffleBytes)
	}
}

func TestSolveEarlyStopOnTol(t *testing.T) {
	tri, b, _ := splineSystem(100, 5)
	_, stats, err := Solve(tri, b, Options{Epochs: 10000, Kaczmarz: true, Seed: 9, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epochs == 10000 {
		t.Fatal("Tol early stop did not trigger")
	}
	if stats.Residual > 1e-6 {
		t.Fatalf("residual after early stop = %g", stats.Residual)
	}
}

func TestSolveShapeErrors(t *testing.T) {
	tri, _, _ := splineSystem(10, 6)
	if _, _, err := Solve(tri, []float64{1, 2}, Options{}); !errors.Is(err, linalg.ErrShape) {
		t.Fatalf("got %v, want ErrShape", err)
	}
	if _, _, err := SolveDistributed(tri, []float64{1}, Options{}); !errors.Is(err, linalg.ErrShape) {
		t.Fatalf("got %v, want ErrShape", err)
	}
	bad := &linalg.Tridiagonal{Diag: nil}
	if _, _, err := Solve(bad, nil, Options{}); err == nil {
		t.Fatal("invalid system accepted")
	}
}

func TestSolveDiverges(t *testing.T) {
	tri, b, _ := splineSystem(50, 7)
	// Huge constant-ish step forces divergence of plain SGD.
	_, _, err := Solve(tri, b, Options{Epochs: 50, Step0: 100, Alpha: 0.0001, Seed: 10})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("got %v, want ErrDiverged", err)
	}
}

func TestSolveDeterministic(t *testing.T) {
	tri, b, _ := splineSystem(80, 8)
	x1, _, err := Solve(tri, b, Options{Epochs: 10, Kaczmarz: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	x2, _, err := Solve(tri, b, Options{Epochs: 10, Kaczmarz: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(x1, x2) != 0 {
		t.Fatal("Solve not deterministic for a fixed seed")
	}
}

func TestDistributedSmallSystems(t *testing.T) {
	// Systems smaller than the worker count and smaller than 3 rows
	// must still work.
	for _, n := range []int{2, 3, 4, 5} {
		tri, b, xTrue := splineSystem(n, uint64(20+n))
		x, _, err := SolveDistributed(tri, b, Options{Epochs: 400, Kaczmarz: true, Workers: 8, Seed: 1})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := maxAbsDiff(x, xTrue); d > 1e-5 {
			t.Fatalf("n=%d: max error %g", n, d)
		}
	}
}

func TestStatsString(t *testing.T) {
	if (Stats{}).String() == "" {
		t.Fatal("empty Stats string")
	}
}
