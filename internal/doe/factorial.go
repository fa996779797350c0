// Package doe implements the statistical experimental-design toolkit
// of §4.2–4.3 of the paper: two-level full and fractional factorial
// designs (including the resolution III design of Figure 3 and its
// resolution IV fold-over), main-effects analysis (Figure 4),
// randomized / orthogonal / nearly orthogonal Latin hypercube designs
// (Figure 5), and sequential bifurcation factor screening.
package doe

import (
	"errors"
	"fmt"
)

// Common errors.
var (
	ErrBadFactors = errors.New("doe: invalid factor count")
	ErrBadDesign  = errors.New("doe: invalid design")
	ErrNoDesign   = errors.New("doe: no design available for this configuration")
)

// Design is a two-level design matrix: Runs[i][j] ∈ {−1, +1} is the
// level of factor j in run i.
type Design struct {
	Factors int
	Runs    [][]int
}

// NumRuns returns the number of runs.
func (d *Design) NumRuns() int { return len(d.Runs) }

// Points converts the ±1 design to float64 rows (for metamodel
// fitting).
func (d *Design) Points() [][]float64 {
	out := make([][]float64, len(d.Runs))
	for i, run := range d.Runs {
		row := make([]float64, len(run))
		for j, v := range run {
			row[j] = float64(v)
		}
		out[i] = row
	}
	return out
}

// ColumnsOrthogonal reports whether every pair of factor columns has
// zero dot product — the property that makes fractional factorial
// analysis clean.
func (d *Design) ColumnsOrthogonal() bool {
	for a := 0; a < d.Factors; a++ {
		for b := a + 1; b < d.Factors; b++ {
			dot := 0
			for _, run := range d.Runs {
				dot += run[a] * run[b]
			}
			if dot != 0 {
				return false
			}
		}
	}
	return true
}

// Balanced reports whether each column has equally many −1 and +1
// levels.
func (d *Design) Balanced() bool {
	for j := 0; j < d.Factors; j++ {
		s := 0
		for _, run := range d.Runs {
			s += run[j]
		}
		if s != 0 {
			return false
		}
	}
	return true
}

// FullFactorial returns the 2ⁿ design in standard order: factor 0
// alternates fastest.
func FullFactorial(n int) (*Design, error) {
	if n < 1 || n > 20 {
		return nil, fmt.Errorf("%w: %d", ErrBadFactors, n)
	}
	runs := 1 << n
	d := &Design{Factors: n, Runs: make([][]int, runs)}
	for i := 0; i < runs; i++ {
		row := make([]int, n)
		for j := 0; j < n; j++ {
			if i&(1<<j) != 0 {
				row[j] = 1
			} else {
				row[j] = -1
			}
		}
		d.Runs[i] = row
	}
	return d, nil
}

// Generator defines one aliased factor of a fractional factorial: the
// target factor's column is the product of the base-factor columns.
type Generator struct {
	Factor int   // index of the generated factor
	Words  []int // indexes of the base factors whose product defines it
}

// FractionalFactorial builds a 2^(n−p) design: a full factorial on the
// base factors (those not named as generator targets) with each
// generated column defined by its generator product.
func FractionalFactorial(n int, gens []Generator) (*Design, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: %d", ErrBadFactors, n)
	}
	generated := make(map[int]Generator, len(gens))
	for _, g := range gens {
		if g.Factor < 0 || g.Factor >= n {
			return nil, fmt.Errorf("%w: generator target %d", ErrBadDesign, g.Factor)
		}
		if _, dup := generated[g.Factor]; dup {
			return nil, fmt.Errorf("%w: duplicate generator for factor %d", ErrBadDesign, g.Factor)
		}
		generated[g.Factor] = g
	}
	var base []int
	for j := 0; j < n; j++ {
		if _, ok := generated[j]; !ok {
			base = append(base, j)
		}
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("%w: all factors generated", ErrBadDesign)
	}
	for _, g := range gens {
		for _, w := range g.Words {
			if _, isGen := generated[w]; isGen {
				return nil, fmt.Errorf("%w: generator for %d references generated factor %d", ErrBadDesign, g.Factor, w)
			}
			if w < 0 || w >= n {
				return nil, fmt.Errorf("%w: generator word %d", ErrBadDesign, w)
			}
		}
	}
	baseDesign, err := FullFactorial(len(base))
	if err != nil {
		return nil, err
	}
	basePos := make(map[int]int, len(base))
	for pos, j := range base {
		basePos[j] = pos
	}
	d := &Design{Factors: n, Runs: make([][]int, baseDesign.NumRuns())}
	for i, baseRun := range baseDesign.Runs {
		row := make([]int, n)
		for pos, j := range base {
			row[j] = baseRun[pos]
		}
		for _, g := range gens {
			v := 1
			for _, w := range g.Words {
				v *= baseRun[basePos[w]]
			}
			row[g.Factor] = v
		}
		d.Runs[i] = row
	}
	return d, nil
}

// ResolutionIII7 returns the resolution III design for seven factors
// shown in Figure 3 of the paper: a 2^(7−4) design with base factors
// (x₁, x₂, x₃) and generators x₄ = x₁x₂, x₅ = x₁x₃, x₆ = x₂x₃,
// x₇ = x₁x₂x₃ — eight runs estimating all seven main effects.
func ResolutionIII7() *Design {
	d, err := FractionalFactorial(7, []Generator{
		{Factor: 3, Words: []int{0, 1}},
		{Factor: 4, Words: []int{0, 2}},
		{Factor: 5, Words: []int{1, 2}},
		{Factor: 6, Words: []int{0, 1, 2}},
	})
	if err != nil {
		panic(err) // static construction cannot fail
	}
	return d
}

// FoldOver returns the fold-over of a design: the original runs plus
// every run with all signs flipped. Folding a resolution III design
// yields a resolution IV design (16 runs for 7 factors), de-aliasing
// main effects from two-factor interactions.
func FoldOver(d *Design) *Design {
	out := &Design{Factors: d.Factors}
	out.Runs = append(out.Runs, d.Runs...)
	for _, run := range d.Runs {
		flipped := make([]int, len(run))
		for j, v := range run {
			flipped[j] = -v
		}
		out.Runs = append(out.Runs, flipped)
	}
	return out
}

// ResolutionIV7 returns the 16-run resolution IV design for seven
// factors referenced in §4.2 (the fold-over of Figure 3).
func ResolutionIV7() *Design { return FoldOver(ResolutionIII7()) }

// ResolutionV7 returns the 32-run 2^(7−2) design referenced in §4.2
// for estimating main effects and second-order interactions with seven
// factors, built with the standard generators x₆ = x₁x₂x₃x₄ and
// x₇ = x₁x₂x₄x₅.
func ResolutionV7() *Design {
	d, err := FractionalFactorial(7, []Generator{
		{Factor: 5, Words: []int{0, 1, 2, 3}},
		{Factor: 6, Words: []int{0, 1, 3, 4}},
	})
	if err != nil {
		panic(err)
	}
	return d
}

// MainEffect is one factor's Figure 4 summary: the average response at
// the low and high levels and the effect (high − low). MainEffects
// returns them in factor order.
type MainEffect struct {
	LowMean  float64
	HighMean float64
	Effect   float64
}

// MainEffects computes the Figure 4 main-effects plot data from a
// design and its observed responses.
func MainEffects(d *Design, y []float64) ([]MainEffect, error) {
	if len(y) != d.NumRuns() {
		return nil, fmt.Errorf("%w: %d responses for %d runs", ErrBadDesign, len(y), d.NumRuns())
	}
	out := make([]MainEffect, d.Factors)
	for j := 0; j < d.Factors; j++ {
		var loSum, hiSum float64
		var loN, hiN int
		for i, run := range d.Runs {
			if run[j] < 0 {
				loSum += y[i]
				loN++
			} else {
				hiSum += y[i]
				hiN++
			}
		}
		if loN == 0 || hiN == 0 {
			return nil, fmt.Errorf("%w: factor %d never varies", ErrBadDesign, j)
		}
		me := MainEffect{
			LowMean:  loSum / float64(loN),
			HighMean: hiSum / float64(hiN),
		}
		me.Effect = me.HighMean - me.LowMean
		out[j] = me
	}
	return out, nil
}
