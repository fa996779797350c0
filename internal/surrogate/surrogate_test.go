package surrogate

import (
	"errors"
	"math"
	"testing"

	"modeldata/internal/doe"
	"modeldata/internal/rng"
)

// codedLH returns an r-run Latin hypercube scaled to [0, 1] coded
// coordinates.
func codedLH(t *testing.T, n, r int, seed uint64) [][]float64 {
	t.Helper()
	lh, err := doe.NearlyOrthogonalLH(n, r, seed, 10000)
	if err != nil {
		t.Fatal(err)
	}
	return lh.Points(0, 1)
}

func TestMinimizeNoisyQuadratic(t *testing.T) {
	// min (x−0.7)² + (y+0.2)² with observation noise.
	p := &Problem{
		Objective: func(x []float64, r *rng.Stream) float64 {
			return (x[0]-0.7)*(x[0]-0.7) + (x[1]+0.2)*(x[1]+0.2) + r.Normal(0, 0.02)
		},
		Lo: []float64{-1, -1}, Hi: []float64{1, 1},
		Reps: 6, Seed: 3,
	}
	res, err := p.Minimize(codedLH(t, 2, 13, 5), 15, 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Hypot(res.X[0]-0.7, res.X[1]+0.2) > 0.15 {
		t.Fatalf("argmin = %v, want ≈ (0.7, −0.2)", res.X)
	}
	if res.Evals != (13+6)*6 {
		t.Fatalf("evals = %d", res.Evals)
	}
}

func TestMinimizeBeatsDesignOnlyBaseline(t *testing.T) {
	// The sequential refinement should land closer to the optimum than
	// just picking the best initial design point.
	obj := func(x []float64, r *rng.Stream) float64 {
		return math.Abs(x[0]-0.37) + r.Normal(0, 0.01)
	}
	design := codedLH(t, 1, 7, 9)
	p := &Problem{Objective: obj, Lo: []float64{0}, Hi: []float64{1}, Reps: 5, Seed: 11}
	refined, err := p.Minimize(design, 21, 5)
	if err != nil {
		t.Fatal(err)
	}
	p2 := &Problem{Objective: obj, Lo: []float64{0}, Hi: []float64{1}, Reps: 5, Seed: 11}
	designOnly, err := p2.Minimize(design, 21, 0)
	if err != nil {
		t.Fatal(err)
	}
	distRefined := math.Abs(refined.X[0] - 0.37)
	distDesign := math.Abs(designOnly.X[0] - 0.37)
	if distRefined > distDesign+1e-9 {
		t.Fatalf("refined %g farther than design-only %g", distRefined, distDesign)
	}
}

func TestMinimizeValidation(t *testing.T) {
	var p Problem
	if _, err := p.Minimize(nil, 5, 1); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("got %v", err)
	}
	p = Problem{
		Objective: func(x []float64, r *rng.Stream) float64 { return 0 },
		Lo:        []float64{1}, Hi: []float64{0},
	}
	if _, err := p.Minimize(nil, 5, 1); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("got %v", err)
	}
	p.Hi = []float64{2}
	if _, err := p.Minimize([][]float64{{0.5}}, 5, 1); !errors.Is(err, ErrBadDesign) {
		t.Fatalf("too few points: %v", err)
	}
	bad := [][]float64{{0.1}, {0.2}, {0.3}, {1.4}}
	if _, err := p.Minimize(bad, 5, 1); !errors.Is(err, ErrBadDesign) {
		t.Fatalf("out-of-range coded value: %v", err)
	}
	ragged := [][]float64{{0.1}, {0.2}, {0.3, 0.4}, {0.5}}
	if _, err := p.Minimize(ragged, 5, 1); !errors.Is(err, ErrBadDesign) {
		t.Fatalf("ragged design: %v", err)
	}
}

func TestMinimizeDeterministic(t *testing.T) {
	mk := func() (Result, error) {
		p := &Problem{
			Objective: func(x []float64, r *rng.Stream) float64 {
				return x[0]*x[0] + r.Normal(0, 0.05)
			},
			Lo: []float64{-1}, Hi: []float64{1}, Reps: 4, Seed: 21,
		}
		return p.Minimize(codedLH(t, 1, 9, 2), 11, 3)
	}
	a, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	if a.X[0] != b.X[0] {
		t.Fatal("surrogate optimization not deterministic for a fixed seed")
	}
}
