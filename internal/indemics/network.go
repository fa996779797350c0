// Package indemics reproduces the Indemics architecture of §2.4 of the
// paper (Bisset et al., TOMACS 2014): an interactive epidemic-modeling
// system that divides labour between a compute side — a network model
// of disease transmission whose state is advanced by transition
// functions — and a relational database side, against which the
// experimenter issues SQL queries at observation times to assess the
// epidemic state, compute performance measures, and specify complex
// interventions as subset-selection queries plus actions.
package indemics

import (
	"errors"
	"fmt"

	"modeldata/internal/rng"
)

// Common errors.
var (
	ErrNoPerson  = errors.New("indemics: no such person")
	ErrBadParams = errors.New("indemics: invalid simulation parameters")
)

// Health is the disease state of an individual (an SEIR-style
// progression plus vaccination).
type Health uint8

// Health states.
const (
	Susceptible Health = iota
	Exposed
	Infectious
	Recovered
	Vaccinated
)

// String names the health state.
func (h Health) String() string {
	switch h {
	case Susceptible:
		return "S"
	case Exposed:
		return "E"
	case Infectious:
		return "I"
	case Recovered:
		return "R"
	case Vaccinated:
		return "V"
	}
	return fmt.Sprintf("Health(%d)", uint8(h))
}

// Person is one node of the contact network. Nodes carry health and
// behavioral state plus static demographics, per §2.4.
type Person struct {
	ID    int
	Age   int
	State Health
	// Fear is the behavioral state in [0, 1]; frightened individuals
	// reduce their contact weights.
	Fear float64
	// daysInState counts days since the last state transition.
	daysInState int
}

// Contact is a weighted edge of the network; Weight folds the §2.4 edge
// attributes (contact duration and type) into a transmission-rate
// multiplier.
type Contact struct {
	To     int
	Weight float64
}

// Network is the contact network: people plus adjacency lists. Each
// undirected edge is stored once per direction.
type Network struct {
	People []Person
	Adj    [][]Contact
}

// NewNetwork creates a network with n isolated people.
func NewNetwork(n int) *Network {
	net := &Network{
		People: make([]Person, n),
		Adj:    make([][]Contact, n),
	}
	for i := range net.People {
		net.People[i] = Person{ID: i, State: Susceptible}
	}
	return net
}

// AddEdge inserts an undirected contact between a and b.
func (n *Network) AddEdge(a, b int, weight float64) error {
	if a < 0 || a >= len(n.People) || b < 0 || b >= len(n.People) {
		return fmt.Errorf("%w: edge %d–%d", ErrNoPerson, a, b)
	}
	n.Adj[a] = append(n.Adj[a], Contact{To: b, Weight: weight})
	n.Adj[b] = append(n.Adj[b], Contact{To: a, Weight: weight})
	return nil
}

// PopulationConfig drives synthetic population generation, standing in
// for the regional synthetic populations Indemics was run on.
type PopulationConfig struct {
	N int
	// MeanDegree is the average number of contacts per person in the
	// Watts-Strogatz substrate.
	MeanDegree int
	// Rewire is the Watts-Strogatz rewiring probability, giving the
	// small-world structure of real contact networks.
	Rewire float64
	// AgeWeights gives the population share of each age band
	// 0–4, 5–17, 18–64, 65+. If nil, a default pyramid is used.
	AgeWeights []float64
}

// ageBands maps band index to a representative sampler range.
var ageBands = [4][2]int{{0, 5}, {5, 18}, {18, 65}, {65, 95}}

// GeneratePopulation builds a synthetic small-world contact network
// with demographic attributes.
func GeneratePopulation(cfg PopulationConfig, r *rng.Stream) (*Network, error) {
	if cfg.N <= 2 || cfg.MeanDegree < 2 {
		return nil, fmt.Errorf("%w: N=%d MeanDegree=%d", ErrBadParams, cfg.N, cfg.MeanDegree)
	}
	weights := cfg.AgeWeights
	if weights == nil {
		weights = []float64{0.06, 0.17, 0.62, 0.15}
	}
	if len(weights) != 4 {
		return nil, fmt.Errorf("%w: need 4 age weights, got %d", ErrBadParams, len(weights))
	}
	net := NewNetwork(cfg.N)
	for i := range net.People {
		band := r.Categorical(weights)
		lo, hi := ageBands[band][0], ageBands[band][1]
		net.People[i].Age = lo + r.Intn(hi-lo)
	}
	// Watts-Strogatz ring lattice with rewiring.
	k := cfg.MeanDegree / 2
	type edgeKey struct{ a, b int }
	seen := make(map[edgeKey]bool)
	addOnce := func(a, b int, w float64) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		key := edgeKey{a, b}
		if seen[key] {
			return
		}
		seen[key] = true
		_ = net.AddEdge(a, b, w) //lint:allow errdrop indices are in range by construction, so AddEdge cannot fail
	}
	for i := 0; i < cfg.N; i++ {
		for j := 1; j <= k; j++ {
			dst := (i + j) % cfg.N
			if r.Float64() < cfg.Rewire {
				dst = r.Intn(cfg.N)
			}
			w := 0.5 + r.Float64() // heterogeneous contact intensity
			addOnce(i, dst, w)
		}
	}
	return net, nil
}
