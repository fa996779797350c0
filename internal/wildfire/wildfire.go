// Package wildfire implements the data-assimilation application of
// §3.2 of the paper (Xue, Gu & Hu): a DEVS-FIRE-style stochastic
// simulation of fire spread over a gridded terrain, a Gaussian model of
// temperature sensors scattered over the grid, and the glue that plugs
// both into the particle filter of internal/assimilate — including the
// sensor-aware proposal distribution of [57] with KDE-estimated
// densities.
//
// The real DEVS-FIRE consumes GIS terrain and live sensor feeds; here
// both are synthetic, which preserves the hidden-Markov structure and
// the sensor noise model that the assimilation results depend on.
package wildfire

import (
	"errors"
	"fmt"
	"math"

	"modeldata/internal/assimilate"
	"modeldata/internal/rng"
	"modeldata/internal/stats"
)

// Common errors.
var (
	ErrBadGrid   = errors.New("wildfire: invalid grid dimensions")
	ErrBadParams = errors.New("wildfire: invalid spread parameters")
	ErrOffGrid   = errors.New("wildfire: cell outside the grid")
)

// CellState is the fire status of one terrain cell: the paper's
// "unburned, burning, or burned".
type CellState uint8

// Cell states.
const (
	Unburned CellState = iota
	Burning
	Burned
)

// State is the fire state over a W×H grid; burning cells carry an
// intensity.
type State struct {
	W, H      int
	Cells     []CellState
	Intensity []float64
	Step      int
}

// NewState returns an all-unburned state.
func NewState(w, h int) (*State, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("%w: %d×%d", ErrBadGrid, w, h)
	}
	return &State{
		W: w, H: h,
		Cells:     make([]CellState, w*h),
		Intensity: make([]float64, w*h),
	}, nil
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := &State{W: s.W, H: s.H, Step: s.Step}
	c.Cells = append([]CellState(nil), s.Cells...)
	c.Intensity = append([]float64(nil), s.Intensity...)
	return c
}

// idx returns the flat index of (x, y).
func (s *State) idx(x, y int) int { return y*s.W + x }

// At returns the state of cell (x, y).
func (s *State) At(x, y int) (CellState, error) {
	if x < 0 || x >= s.W || y < 0 || y >= s.H {
		return Unburned, fmt.Errorf("%w: (%d, %d)", ErrOffGrid, x, y)
	}
	return s.Cells[s.idx(x, y)], nil
}

// Ignite sets cell (x, y) burning with the given intensity.
func (s *State) Ignite(x, y int, intensity float64) error {
	if x < 0 || x >= s.W || y < 0 || y >= s.H {
		return fmt.Errorf("%w: (%d, %d)", ErrOffGrid, x, y)
	}
	i := s.idx(x, y)
	s.Cells[i] = Burning
	s.Intensity[i] = intensity
	return nil
}

// BurningCount returns the number of burning cells.
func (s *State) BurningCount() int {
	n := 0
	for _, c := range s.Cells {
		if c == Burning {
			n++
		}
	}
	return n
}

// BurnedOrBurning reports per-cell whether fire has reached it.
func (s *State) BurnedOrBurning() []bool {
	out := make([]bool, len(s.Cells))
	for i, c := range s.Cells {
		out[i] = c != Unburned
	}
	return out
}

// Params govern the stochastic spread model.
type Params struct {
	// SpreadProb is the per-step probability that a burning cell
	// ignites a given unburned 4-neighbor.
	SpreadProb float64
	// WindX and WindY bias spread: the ignition probability toward the
	// wind direction is multiplied by (1+|w|), against it by 1/(1+|w|).
	WindX, WindY float64
	// BurnSteps is the mean number of steps a cell burns before
	// becoming Burned (geometric burnout).
	BurnSteps float64
	// IntensityMean and IntensityStd describe a newly burning cell's
	// fire intensity.
	IntensityMean, IntensityStd float64
}

func (p Params) validate() error {
	if p.SpreadProb <= 0 || p.SpreadProb >= 1 || p.BurnSteps < 1 || p.IntensityMean <= 0 {
		return fmt.Errorf("%w: %+v", ErrBadParams, p)
	}
	return nil
}

// neighborOffsets are 4-neighborhood offsets with wind-bias axes.
var neighborOffsets = [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}

// StepFire advances the fire by one Δt: burning cells ignite unburned
// neighbors with wind-biased probability and burn out geometrically.
// The input state is not modified.
func StepFire(s *State, p Params, r *rng.Stream) (*State, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	next := s.Clone()
	next.Step++
	pOut := 1 / p.BurnSteps
	for y := 0; y < s.H; y++ {
		for x := 0; x < s.W; x++ {
			i := s.idx(x, y)
			if s.Cells[i] != Burning {
				continue
			}
			// Spread to neighbors.
			for _, d := range neighborOffsets {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || nx >= s.W || ny < 0 || ny >= s.H {
					continue
				}
				j := s.idx(nx, ny)
				if s.Cells[j] != Unburned || next.Cells[j] != Unburned {
					continue
				}
				prob := p.SpreadProb * windFactor(d[0], d[1], p.WindX, p.WindY)
				if prob > 0.99 {
					prob = 0.99
				}
				if r.Float64() < prob {
					next.Cells[j] = Burning
					next.Intensity[j] = math.Max(0.1, r.Normal(p.IntensityMean, p.IntensityStd))
				}
			}
			// Burn out.
			if r.Float64() < pOut {
				next.Cells[i] = Burned
				next.Intensity[i] = 0
			}
		}
	}
	return next, nil
}

// windFactor scales spread probability along the wind.
func windFactor(dx, dy int, wx, wy float64) float64 {
	dot := float64(dx)*wx + float64(dy)*wy
	if dot > 0 {
		return 1 + dot
	}
	return 1 / (1 - dot)
}

// Sensors is the Gaussian sensor model: one temperature sensor per
// Block×Block tile; a reading is ambient temperature plus FireTemp per
// burning-cell intensity unit within the tile, plus N(0, Noise²) —
// yielding the closed-form observation density Algorithm 2 needs.
type Sensors struct {
	Block    int
	Ambient  float64
	FireTemp float64
	Noise    float64
}

// mean returns the noiseless reading of each sensor.
func (sm Sensors) mean(s *State) []float64 {
	bx := (s.W + sm.Block - 1) / sm.Block
	by := (s.H + sm.Block - 1) / sm.Block
	out := make([]float64, bx*by)
	for i := range out {
		out[i] = sm.Ambient
	}
	for y := 0; y < s.H; y++ {
		for x := 0; x < s.W; x++ {
			i := s.idx(x, y)
			if s.Cells[i] == Burning {
				b := (y/sm.Block)*bx + x/sm.Block
				out[b] += sm.FireTemp * s.Intensity[i]
			}
		}
	}
	return out
}

// Observe draws a noisy sensor reading vector from state s.
func (sm Sensors) Observe(s *State, r *rng.Stream) []float64 {
	mu := sm.mean(s)
	for i := range mu {
		mu[i] += r.Normal(0, sm.Noise)
	}
	return mu
}

// LogLik returns log p(y | x) under the Gaussian sensor model.
func (sm Sensors) LogLik(s *State, ys []float64) float64 {
	mu := sm.mean(s)
	if len(mu) != len(ys) {
		return math.Inf(-1)
	}
	ll := 0.0
	for i := range ys {
		z := (ys[i] - mu[i]) / sm.Noise
		ll += -0.5*z*z - math.Log(sm.Noise) - 0.5*math.Log(2*math.Pi)
	}
	return ll
}

// SensorBlockOf returns the sensor index covering cell (x, y).
func (sm Sensors) SensorBlockOf(s *State, x, y int) int {
	bx := (s.W + sm.Block - 1) / sm.Block
	return (y/sm.Block)*bx + x/sm.Block
}

// CellError counts cells whose fire-reached status differs between two
// states — the assimilation accuracy metric of the experiments.
func CellError(a, b *State) int {
	av, bv := a.BurnedOrBurning(), b.BurnedOrBurning()
	n := 0
	for i := range av {
		if av[i] != bv[i] {
			n++
		}
	}
	return n
}

// ConsensusState builds the per-cell majority-vote state over a
// weighted particle set: a cell is marked reached if the total weight
// of particles in which it is reached exceeds 1/2 (burning if burning
// weight dominates burned weight).
func ConsensusState(ps []assimilate.Weighted[*State]) (*State, error) {
	if len(ps) == 0 {
		return nil, assimilate.ErrNoparticles
	}
	proto := ps[0].X
	out, err := NewState(proto.W, proto.H)
	if err != nil {
		return nil, err
	}
	nCells := len(proto.Cells)
	reached := make([]float64, nCells)
	burning := make([]float64, nCells)
	for _, p := range ps {
		for i, c := range p.X.Cells {
			if c != Unburned {
				reached[i] += p.W
			}
			if c == Burning {
				burning[i] += p.W
			}
		}
	}
	for i := 0; i < nCells; i++ {
		if reached[i] > 0.5 {
			if burning[i] > reached[i]/2 {
				out.Cells[i] = Burning
			} else {
				out.Cells[i] = Burned
			}
		}
	}
	return out, nil
}

// kdeOverSummary builds a KDE over the burning-count summary statistic
// of M samples drawn by the given sampler — the density-estimation step
// of the [57] proposal.
func kdeOverSummary(m int, sample func() *State) (*stats.KDE, error) {
	xs := make([]float64, m)
	for i := range xs {
		xs[i] = float64(sample().BurningCount())
	}
	return stats.NewKDE(xs, 0, nil)
}
