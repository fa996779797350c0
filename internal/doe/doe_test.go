package doe

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"modeldata/internal/metamodel"
	"modeldata/internal/rng"
)

func TestFullFactorial(t *testing.T) {
	d, err := FullFactorial(3)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRuns() != 8 || !d.Balanced() || !d.ColumnsOrthogonal() {
		t.Fatalf("2³ design invalid: %v", d.Runs)
	}
	if _, err := FullFactorial(0); !errors.Is(err, ErrBadFactors) {
		t.Fatalf("got %v", err)
	}
	if _, err := FullFactorial(25); !errors.Is(err, ErrBadFactors) {
		t.Fatalf("got %v", err)
	}
}

// TestFigure3Exact verifies the resolution III design reproduces
// Figure 3 of the paper row for row.
func TestFigure3Exact(t *testing.T) {
	want := [][]int{
		{-1, -1, -1, 1, 1, 1, -1},
		{1, -1, -1, -1, -1, 1, 1},
		{-1, 1, -1, -1, 1, -1, 1},
		{1, 1, -1, 1, -1, -1, -1},
		{-1, -1, 1, 1, -1, -1, 1},
		{1, -1, 1, -1, 1, -1, -1},
		{-1, 1, 1, -1, -1, 1, -1},
		{1, 1, 1, 1, 1, 1, 1},
	}
	d := ResolutionIII7()
	if d.NumRuns() != 8 || d.Factors != 7 {
		t.Fatalf("shape: %d runs × %d factors", d.NumRuns(), d.Factors)
	}
	for i, row := range want {
		for j, v := range row {
			if d.Runs[i][j] != v {
				t.Fatalf("run %d factor %d = %d, want %d", i+1, j+1, d.Runs[i][j], v)
			}
		}
	}
	if !d.ColumnsOrthogonal() || !d.Balanced() {
		t.Fatal("Figure 3 design not orthogonal/balanced")
	}
}

func TestResolutionIVAndV(t *testing.T) {
	iv := ResolutionIV7()
	if iv.NumRuns() != 16 || !iv.ColumnsOrthogonal() || !iv.Balanced() {
		t.Fatalf("res IV: %d runs", iv.NumRuns())
	}
	v := ResolutionV7()
	if v.NumRuns() != 32 || !v.ColumnsOrthogonal() || !v.Balanced() {
		t.Fatalf("res V: %d runs", v.NumRuns())
	}
	// §4.2's design-size ladder for 7 factors: 8, 16, 32, 128.
	full, _ := FullFactorial(7)
	sizes := []int{ResolutionIII7().NumRuns(), iv.NumRuns(), v.NumRuns(), full.NumRuns()}
	want := []int{8, 16, 32, 128}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("design sizes = %v, want %v", sizes, want)
		}
	}
}

func TestFractionalFactorialValidation(t *testing.T) {
	cases := []struct {
		n    int
		gens []Generator
	}{
		{1, nil},
		{3, []Generator{{Factor: 9, Words: []int{0}}}},
		{3, []Generator{{Factor: 2, Words: []int{0}}, {Factor: 2, Words: []int{1}}}},
		{3, []Generator{{Factor: 2, Words: []int{9}}}},
		{2, []Generator{{Factor: 0, Words: []int{1}}, {Factor: 1, Words: []int{0}}}},
	}
	for i, c := range cases {
		if _, err := FractionalFactorial(c.n, c.gens); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Generators referencing generated factors are rejected.
	_, err := FractionalFactorial(4, []Generator{
		{Factor: 2, Words: []int{0, 1}},
		{Factor: 3, Words: []int{2}},
	})
	if !errors.Is(err, ErrBadDesign) {
		t.Fatalf("got %v", err)
	}
}

// TestMainEffectsRecoverLinearModel reproduces Figure 4: on the
// resolution III design, main effects computed from low/high means
// recover the true coefficients of a linear response.
func TestMainEffectsRecoverLinearModel(t *testing.T) {
	d := ResolutionIII7()
	beta := []float64{2, -1, 0, 3, 0.5, 0, -2}
	r := rng.New(1)
	y := make([]float64, d.NumRuns())
	for i, run := range d.Runs {
		v := 10.0
		for j, b := range beta {
			v += b * float64(run[j])
		}
		y[i] = v + r.Normal(0, 0.01)
	}
	effects, err := MainEffects(d, y)
	if err != nil {
		t.Fatal(err)
	}
	for j, e := range effects {
		// Effect (high − low) = 2β under the linear model.
		if math.Abs(e.Effect-2*beta[j]) > 0.05 {
			t.Fatalf("factor %d effect = %g, want %g", j, e.Effect, 2*beta[j])
		}
		if math.Abs((e.LowMean+e.HighMean)/2-10) > 0.05 {
			t.Fatalf("factor %d means %g/%g off-center", j, e.LowMean, e.HighMean)
		}
	}
	// Agreement with the OLS polynomial metamodel's main effects.
	poly, err := metamodel.FitPolynomial(d.Points(), y, 1)
	if err != nil {
		t.Fatal(err)
	}
	for j, b := range poly.MainEffects() {
		if math.Abs(2*b-effects[j].Effect) > 1e-9 {
			t.Fatalf("OLS and contrast main effects disagree at %d: %g vs %g", j, 2*b, effects[j].Effect)
		}
	}
}

func TestMainEffectsValidation(t *testing.T) {
	d := ResolutionIII7()
	if _, err := MainEffects(d, []float64{1}); !errors.Is(err, ErrBadDesign) {
		t.Fatalf("got %v", err)
	}
	constant := &Design{Factors: 1, Runs: [][]int{{1}, {1}}}
	if _, err := MainEffects(constant, []float64{1, 2}); !errors.Is(err, ErrBadDesign) {
		t.Fatalf("got %v", err)
	}
}

func TestRandomLHProperties(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		lh, err := RandomLH(3, 9, rng.New(seed))
		if err != nil {
			return false
		}
		return lh.IsLatin() && lh.NumRuns() == 9
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RandomLH(0, 9, rng.New(1)); !errors.Is(err, ErrBadDesign) {
		t.Fatalf("got %v", err)
	}
}

func TestLatinHypercubePoints(t *testing.T) {
	lh, err := RandomLH(2, 5, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	pts := lh.Points(0, 1)
	for _, row := range pts {
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("point out of range: %v", row)
			}
		}
	}
	// Each column must cover {0, 0.25, 0.5, 0.75, 1}.
	for j := 0; j < 2; j++ {
		seen := make(map[float64]bool)
		for _, row := range pts {
			seen[row[j]] = true
		}
		if len(seen) != 5 {
			t.Fatalf("column %d covers %d levels", j, len(seen))
		}
	}
}

// TestFigure5OrthogonalLH reproduces the Figure 5 configuration: a
// 2-factor, 9-run Latin hypercube with levels −4…4 whose columns are
// exactly orthogonal.
func TestFigure5OrthogonalLH(t *testing.T) {
	lh, err := OrthogonalLH29()
	if err != nil {
		t.Fatal(err)
	}
	if lh.NumRuns() != 9 || lh.Factors != 2 {
		t.Fatalf("shape: %d×%d", lh.NumRuns(), lh.Factors)
	}
	if !lh.IsLatin() {
		t.Fatal("not a Latin hypercube")
	}
	if c := lh.MaxColumnCorrelation(); c != 0 {
		t.Fatalf("column correlation = %g, want 0", c)
	}
	// Levels must be exactly −4…4 in each column.
	for j := 0; j < 2; j++ {
		min, max := 99, -99
		for _, run := range lh.Levels {
			if run[j] < min {
				min = run[j]
			}
			if run[j] > max {
				max = run[j]
			}
		}
		if min != -4 || max != 4 {
			t.Fatalf("column %d levels span [%d, %d]", j, min, max)
		}
	}
}

func TestNOLHImprovesOnRandom(t *testing.T) {
	random, err := RandomLH(4, 17, rng.New(12345))
	if err != nil {
		t.Fatal(err)
	}
	nolh, err := NearlyOrthogonalLH(4, 17, 12345, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if !nolh.IsLatin() {
		t.Fatal("NOLH lost the Latin property")
	}
	if nolh.MaxColumnCorrelation() > 0.05 {
		t.Fatalf("NOLH correlation = %g, want < 0.05", nolh.MaxColumnCorrelation())
	}
	if nolh.MaxColumnCorrelation() > random.MaxColumnCorrelation() {
		t.Fatal("NOLH worse than its random start")
	}
}

func TestSequentialBifurcationFindsImportantFactors(t *testing.T) {
	const n = 32
	beta := make([]float64, n)
	beta[3], beta[17], beta[29] = 5, 8, 3 // three important factors
	sim := LinearScreeningModel(beta, 0.1)
	res, err := SequentialBifurcation(n, sim, SBOptions{Threshold: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 17, 29}
	if len(res.Important) != 3 || res.Important[0] != want[0] ||
		res.Important[1] != want[1] || res.Important[2] != want[2] {
		t.Fatalf("important = %v, want %v", res.Important, want)
	}
	// Group testing must beat one-factor-at-a-time on runs.
	ofat, err := OneFactorAtATime(n, sim, SBOptions{Threshold: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ofat.Important) != 3 {
		t.Fatalf("OFAT important = %v", ofat.Important)
	}
	if res.Runs >= ofat.Runs {
		t.Fatalf("SB used %d runs, OFAT %d — no saving", res.Runs, ofat.Runs)
	}
}

func TestSequentialBifurcationAllUnimportant(t *testing.T) {
	sim := LinearScreeningModel(make([]float64, 16), 0.05)
	res, err := SequentialBifurcation(16, sim, SBOptions{Threshold: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Important) != 0 {
		t.Fatalf("phantom factors: %v", res.Important)
	}
	// One group test (two probes × replications) should suffice.
	if res.Runs > 2*3 {
		t.Fatalf("runs = %d for an all-null model", res.Runs)
	}
}

func TestScreeningValidation(t *testing.T) {
	if _, err := SequentialBifurcation(0, nil, SBOptions{}); !errors.Is(err, ErrBadFactors) {
		t.Fatalf("got %v", err)
	}
	if _, err := SequentialBifurcation(3, nil, SBOptions{}); !errors.Is(err, ErrBadDesign) {
		t.Fatalf("got %v", err)
	}
	if _, err := OneFactorAtATime(0, nil, SBOptions{}); !errors.Is(err, ErrBadFactors) {
		t.Fatalf("got %v", err)
	}
	if _, err := OneFactorAtATime(3, nil, SBOptions{}); !errors.Is(err, ErrBadDesign) {
		t.Fatalf("got %v", err)
	}
}
