package composite

import (
	"errors"
	"math"
	"testing"

	"modeldata/internal/rng"
	"modeldata/internal/stats"
)

// linkedStage builds the analytically tractable two-stage model
// Y1 ~ N(mu, s1²), Y2 = Y1 + N(0, s2²), for which θ = mu, V1 = s1²+s2²,
// and V2 = Cov(Y2, Y2' | shared Y1) = s1².
func linkedStage(mu, s1, s2, c1, c2 float64) TwoStage {
	return TwoStage{
		M1: func(r *rng.Stream) float64 { return r.Normal(mu, s1) },
		M2: func(y1 float64, r *rng.Stream) float64 { return y1 + r.Normal(0, s2) },
		C1: c1,
		C2: c2,
	}
}

func TestRunRCCounts(t *testing.T) {
	ts := linkedStage(5, 1, 1, 10, 1)
	run, err := ts.RunRC(100, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if run.M1Runs != 25 || run.M2Runs != 100 {
		t.Fatalf("runs: m=%d n=%d", run.M1Runs, run.M2Runs)
	}
}

func TestRunRCUnbiased(t *testing.T) {
	ts := linkedStage(7, 1, 0.5, 1, 1)
	parent := rng.New(2)
	const reps = 300
	thetas := make([]float64, reps)
	for i := range thetas {
		run, err := ts.RunRC(50, 0.2, parent.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		thetas[i] = run.Theta
	}
	if m := stats.Mean(thetas); math.Abs(m-7) > 0.1 {
		t.Fatalf("E[θ̂] = %g, want ≈ 7", m)
	}
}

func TestRunRCAlphaValidation(t *testing.T) {
	ts := linkedStage(0, 1, 1, 1, 1)
	for _, a := range []float64{0, -0.5, 1.5} {
		if _, err := ts.RunRC(10, a, 1); !errors.Is(err, ErrBadAlpha) {
			t.Fatalf("α=%g accepted", a)
		}
	}
	if _, err := ts.RunRC(0, 0.5, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestRunBudgeted(t *testing.T) {
	ts := linkedStage(3, 1, 1, 10, 1)
	run, err := ts.RunBudgeted(1000, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cost := math.Ceil(0.5*float64(run.M2Runs))*10 + float64(run.M2Runs); cost > 1000 {
		t.Fatalf("cost %g exceeds budget", cost)
	}
	// One more M2 replication must not fit.
	n := run.M2Runs + 1
	next := math.Ceil(0.5*float64(n))*10 + float64(n)
	if next <= 1000 {
		t.Fatalf("N(c) not maximal: n=%d next cost %g", run.M2Runs, next)
	}
	if _, err := ts.RunBudgeted(0.5, 0.5, 3); err == nil {
		t.Fatal("hopeless budget accepted")
	}
}

func TestGAlphaDegenerateCases(t *testing.T) {
	s := Statistics{C1: 10, C2: 1, V1: 4, V2: 1}
	// α = 1 (no caching): r_α = 1, bracket = 2−2 = 0 ⇒ g = (c1+c2)·V1.
	if got, want := GAlpha(1, s), (10.0+1)*4; math.Abs(got-want) > 1e-12 {
		t.Fatalf("g(1) = %g, want %g", got, want)
	}
	// GTilde at α = 1 agrees with GAlpha.
	if math.Abs(GTilde(1, s)-GAlpha(1, s)) > 1e-12 {
		t.Fatal("g and g̃ differ at α=1")
	}
	// At α = 1/k the floor is exact, so g = g̃.
	for _, k := range []float64{2, 4, 10} {
		a := 1 / k
		if math.Abs(GAlpha(a, s)-GTilde(a, s)) > 1e-9 {
			t.Fatalf("g(1/%g) = %g vs g̃ = %g", k, GAlpha(a, s), GTilde(a, s))
		}
	}
}

func TestOptimalAlphaFormula(t *testing.T) {
	// α* = sqrt((c2/c1)/(V1/V2 − 1)).
	s := Statistics{C1: 100, C2: 1, V1: 5, V2: 1}
	want := math.Sqrt((1.0 / 100) / (5 - 1))
	if got := OptimalAlpha(s, 1e-6); math.Abs(got-want) > 1e-12 {
		t.Fatalf("α* = %g, want %g", got, want)
	}
	// V2 = 0: M1 effectively deterministic → minimum α.
	if got := OptimalAlpha(Statistics{C1: 1, C2: 1, V1: 1, V2: 0}, 0.01); got != 0.01 {
		t.Fatalf("V2=0: α* = %g", got)
	}
	// V1 = V2: M2 a deterministic transformer → α = 1.
	if got := OptimalAlpha(Statistics{C1: 1, C2: 1, V1: 2, V2: 2}, 0.01); got != 1 {
		t.Fatalf("V1=V2: α* = %g", got)
	}
	// Truncation to 1 when the formula exceeds it.
	if got := OptimalAlpha(Statistics{C1: 1, C2: 100, V1: 1.01, V2: 1}, 0.01); got != 1 {
		t.Fatalf("truncation: α* = %g", got)
	}
}

func TestOptimalAlphaMinimizesGTilde(t *testing.T) {
	s := Statistics{C1: 50, C2: 1, V1: 3, V2: 1}
	astar := OptimalAlpha(s, 1e-6)
	g := GTilde(astar, s)
	for _, a := range []float64{0.01, 0.05, 0.1, 0.2, 0.5, 0.9, 1} {
		if GTilde(a, s) < g-1e-9 {
			t.Fatalf("g̃(%g) = %g < g̃(α*) = %g", a, GTilde(a, s), g)
		}
	}
}

func TestPilotEstimateRecoversVariances(t *testing.T) {
	// V1 = s1² + s2² = 1 + 0.25; V2 = s1² = 1.
	ts := linkedStage(0, 1, 0.5, 7, 3)
	s, err := ts.PilotEstimate(4000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.C1 != 7 || s.C2 != 3 {
		t.Fatalf("costs: %v", s)
	}
	if math.Abs(s.V1-1.25) > 0.1 {
		t.Fatalf("V1 = %g, want ≈ 1.25", s.V1)
	}
	if math.Abs(s.V2-1) > 0.1 {
		t.Fatalf("V2 = %g, want ≈ 1", s.V2)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
	if _, err := ts.PilotEstimate(1, 1); err == nil {
		t.Fatal("k=1 accepted")
	}
}

// TestRCVarianceMatchesTheory is the heart of experiment F2: for a
// fixed budget, the sample variance of the budgeted estimator scaled by
// the budget approaches g(α).
func TestRCVarianceMatchesTheory(t *testing.T) {
	ts := linkedStage(0, 1, 1, 20, 1)
	s := Statistics{C1: ts.C1, C2: ts.C2, V1: 2, V2: 1}
	parent := rng.New(11)
	const budget = 4000.0
	const reps = 600
	for _, alpha := range []float64{0.25, 1} {
		us := make([]float64, reps)
		for i := range us {
			run, err := ts.RunBudgeted(budget, alpha, parent.Uint64())
			if err != nil {
				t.Fatal(err)
			}
			us[i] = run.Theta
		}
		scaled := stats.Variance(us) * budget
		want := GAlpha(alpha, s)
		if math.Abs(scaled-want)/want > 0.25 {
			t.Fatalf("α=%g: c·Var(U(c)) = %g, want ≈ g(α) = %g", alpha, scaled, want)
		}
	}
}

// TestRCCachingBeatsNoCaching verifies the paper's headline: with M1
// expensive and V2 < V1, running at α* is strictly more efficient than
// α = 1.
func TestRCCachingBeatsNoCaching(t *testing.T) {
	s := Statistics{C1: 20, C2: 1, V1: 2, V2: 1}
	astar := OptimalAlpha(s, 1e-3)
	if GAlpha(astar, s) >= GAlpha(1, s) {
		t.Fatalf("g(α*)=%g not better than g(1)=%g", GAlpha(astar, s), GAlpha(1, s))
	}
}
