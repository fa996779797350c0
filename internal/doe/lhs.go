package doe

import (
	"fmt"
	"math"

	"modeldata/internal/rng"
)

// LatinHypercube is an n-factor, r-run Latin hypercube design: each
// column is a permutation of the r centered levels
// −(r−1)/2, …, (r−1)/2 (for r = 9: −4 … 4, as in Figure 5), so each
// possible level appears exactly once per factor.
type LatinHypercube struct {
	Factors int
	Levels  [][]int // Levels[i][j] = centered level of factor j in run i
}

// NumRuns returns the number of design points.
func (lh *LatinHypercube) NumRuns() int { return len(lh.Levels) }

// Points maps the centered integer levels onto [lo, hi] per factor.
func (lh *LatinHypercube) Points(lo, hi float64) [][]float64 {
	r := lh.NumRuns()
	span := float64(r - 1)
	out := make([][]float64, r)
	for i, run := range lh.Levels {
		row := make([]float64, len(run))
		for j, lvl := range run {
			frac := (float64(lvl) + span/2) / span
			row[j] = lo + frac*(hi-lo)
		}
		out[i] = row
	}
	return out
}

// IsLatin verifies the defining property: each centered level appears
// exactly once in every column.
func (lh *LatinHypercube) IsLatin() bool {
	r := lh.NumRuns()
	for j := 0; j < lh.Factors; j++ {
		seen := make(map[int]bool, r)
		for _, run := range lh.Levels {
			seen[run[j]] = true
		}
		for lvl := 0; lvl < r; lvl++ {
			if !seen[lvl-(r-1)/2] {
				return false
			}
		}
	}
	return true
}

// MaxColumnCorrelation returns the largest absolute pairwise Pearson
// correlation between factor columns; 0 means fully orthogonal.
func (lh *LatinHypercube) MaxColumnCorrelation() float64 {
	r := lh.NumRuns()
	if r < 2 {
		return 0
	}
	maxCorr := 0.0
	// Centered levels have mean 0 by construction; variance is equal
	// across columns, so correlation reduces to normalized dot product.
	norm := 0.0
	for i := 0; i < r; i++ {
		lvl := float64(lh.Levels[i][0])
		norm += lvl * lvl
	}
	for a := 0; a < lh.Factors; a++ {
		for b := a + 1; b < lh.Factors; b++ {
			dot := 0.0
			for i := 0; i < r; i++ {
				dot += float64(lh.Levels[i][a]) * float64(lh.Levels[i][b])
			}
			if c := math.Abs(dot / norm); c > maxCorr {
				maxCorr = c
			}
		}
	}
	return maxCorr
}

// RandomLH builds the basic randomized Latin hypercube of §4.2: each
// column is an independent uniform permutation of the r levels. r must
// be ≥ 2; the paper notes these behave poorly unless r ≫ n.
func RandomLH(n, r int, stream *rng.Stream) (*LatinHypercube, error) {
	if n < 1 || r < 2 {
		return nil, fmt.Errorf("%w: n=%d r=%d", ErrBadDesign, n, r)
	}
	lh := &LatinHypercube{Factors: n, Levels: make([][]int, r)}
	for i := range lh.Levels {
		lh.Levels[i] = make([]int, n)
	}
	offset := (r - 1) / 2
	for j := 0; j < n; j++ {
		perm := stream.Perm(r)
		for i := 0; i < r; i++ {
			lh.Levels[i][j] = perm[i] - offset
		}
	}
	return lh, nil
}

// NearlyOrthogonalLH builds a nearly orthogonal Latin hypercube by
// iterated column-swap descent on the maximum column correlation
// (Cioppa & Lucas construct NOLHs algebraically; a seeded local search
// achieves the same "good space-filling and orthogonality" contract
// for the design sizes used here). For odd r and small n the search
// typically reaches exact orthogonality (e.g. the n=2, r=9 design of
// Figure 5).
func NearlyOrthogonalLH(n, r int, seed uint64, maxIters int) (*LatinHypercube, error) {
	stream := rng.New(seed)
	lh, err := RandomLH(n, r, stream)
	if err != nil {
		return nil, err
	}
	if maxIters <= 0 {
		maxIters = 20000
	}
	best := lh.MaxColumnCorrelation()
	for iter := 0; iter < maxIters && best > 0; iter++ {
		// Swap two levels within a random non-first column.
		j := 0
		if n > 1 {
			j = 1 + stream.Intn(n-1)
		}
		a, b := stream.Intn(r), stream.Intn(r)
		if a == b {
			continue
		}
		lh.Levels[a][j], lh.Levels[b][j] = lh.Levels[b][j], lh.Levels[a][j]
		if c := lh.MaxColumnCorrelation(); c <= best {
			best = c
		} else {
			lh.Levels[a][j], lh.Levels[b][j] = lh.Levels[b][j], lh.Levels[a][j]
		}
	}
	return lh, nil
}

// OrthogonalLH29 returns an exactly orthogonal Latin hypercube for
// n = 2 factors and r = 9 runs with levels −4 … 4 — the configuration
// of Figure 5. It is found by seeded descent and verified orthogonal.
func OrthogonalLH29() (*LatinHypercube, error) {
	for seed := uint64(1); seed < 64; seed++ {
		lh, err := NearlyOrthogonalLH(2, 9, seed, 20000)
		if err != nil {
			return nil, err
		}
		if lh.MaxColumnCorrelation() == 0 { // correlation of integer level columns is exactly zero when orthogonal
			return lh, nil
		}
	}
	return nil, fmt.Errorf("%w: orthogonal 2×9 LH not found", ErrNoDesign)
}
