package pdesmas

import (
	"fmt"

	"modeldata/internal/rng"
)

// This file provides the ALP (agent logical process) layer over the CLP
// tree, plus the two range-query algorithms whose accuracy the paper's
// experiments probe. Agents move along a line with constant velocity,
// which keeps the ground truth exactly computable while preserving the
// phenomenon under study: ALPs advance through simulated time at
// different rates, so "right now" is ill-defined across the system.

// PosAttr is the SSV attribute name used for agent positions.
const PosAttr = "pos"

// ALP is one agent logical process: it owns a subset of the agents and
// advances them at its own cadence through its sense-think-respond
// cycle.
type ALP struct {
	ID int
	// LVT is the local virtual time the ALP has reached.
	LVT float64
	// Dt is the ALP's time-step size (its rate of progress per step).
	Dt     float64
	agents []int
}

// World is a complete PDES-MAS instance: a CLP tree plus ALPs and the
// static agent attributes (age) used by range-query predicates.
type World struct {
	Tree *Tree
	ALPs []*ALP
	// pos0 and vel define each agent's true trajectory
	// pos(t) = pos0 + vel·t.
	pos0, vel []float64
	age       []int
}

// WorldConfig sizes a World.
type WorldConfig struct {
	Agents int
	ALPs   int
	Leaves int
	// DtMin and DtMax bound the per-ALP step sizes; spreading them out
	// desynchronizes the ALPs.
	DtMin, DtMax float64
	// Speed bounds agent velocity magnitude.
	Speed float64
	// Span is the width of the initial position interval [0, Span).
	Span float64
}

// NewWorld builds a world with deterministic agent trajectories and
// round-robin agent→ALP assignment.
func NewWorld(cfg WorldConfig, r *rng.Stream) (*World, error) {
	if cfg.Agents < 1 || cfg.ALPs < 1 || cfg.Leaves < 1 {
		return nil, fmt.Errorf("%w: %+v", ErrBadTree, cfg)
	}
	tree, err := NewTree(cfg.Leaves)
	if err != nil {
		return nil, err
	}
	w := &World{
		Tree: tree,
		pos0: make([]float64, cfg.Agents),
		vel:  make([]float64, cfg.Agents),
		age:  make([]int, cfg.Agents),
	}
	for i := 0; i < cfg.Agents; i++ {
		w.pos0[i] = r.Float64() * cfg.Span
		w.vel[i] = (2*r.Float64() - 1) * cfg.Speed
		w.age[i] = 1 + r.Intn(90)
	}
	for a := 0; a < cfg.ALPs; a++ {
		dt := cfg.DtMin + (cfg.DtMax-cfg.DtMin)*r.Float64()
		alp := &ALP{ID: a, Dt: dt}
		if err := tree.AttachALP(a, a%cfg.Leaves); err != nil {
			return nil, err
		}
		w.ALPs = append(w.ALPs, alp)
	}
	for i := 0; i < cfg.Agents; i++ {
		alp := w.ALPs[i%cfg.ALPs]
		alp.agents = append(alp.agents, i)
	}
	// Initial SSV writes at t = 0.
	for _, alp := range w.ALPs {
		for _, ag := range alp.agents {
			if err := tree.Write(alp.ID, SSVID{Agent: ag, Attr: PosAttr}, 0, w.pos0[ag]); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

// TruePos returns the exact agent position at time t.
func (w *World) TruePos(agent int, t float64) float64 {
	return w.pos0[agent] + w.vel[agent]*t
}

// AdvanceALP advances one ALP through whole steps until its LVT reaches
// at least `until`, writing each agent's position SSV at every step.
func (w *World) AdvanceALP(alpID int, until float64) error {
	if alpID < 0 || alpID >= len(w.ALPs) {
		return fmt.Errorf("%w: %d", ErrNoALP, alpID)
	}
	alp := w.ALPs[alpID]
	for alp.LVT < until {
		alp.LVT += alp.Dt
		for _, ag := range alp.agents {
			id := SSVID{Agent: ag, Attr: PosAttr}
			if err := w.Tree.Write(alp.ID, id, alp.LVT, w.TruePos(ag, alp.LVT)); err != nil {
				return err
			}
		}
	}
	return nil
}

// AdvanceAllUneven advances every ALP to its own multiple of horizon:
// ALP a reaches roughly horizon·(1 + skew·a/(len−1)), producing the
// unequal progress rates the range-query problem stems from.
func (w *World) AdvanceAllUneven(horizon, skew float64) error {
	n := len(w.ALPs)
	for a := 0; a < n; a++ {
		frac := 0.0
		if n > 1 {
			frac = float64(a) / float64(n-1)
		}
		if err := w.AdvanceALP(a, horizon*(1+skew*frac)); err != nil {
			return err
		}
	}
	return nil
}

// RangeQuery is the §2.4 query: "find all agents who are, right now,
// within [center±radius] and over minAge years old".
type RangeQuery struct {
	Time    float64
	Center  float64
	Radius  float64
	MinAge  int
	AskerID int // the ALP issuing the query
}

// RunSync answers the query with timestamp-synchronized reads: each
// position is the SSV value in effect at the query time. It returns
// the matching agents, ascending.
func (w *World) RunSync(q RangeQuery) ([]int, error) {
	return w.runQuery(q, func(id SSVID) (float64, error) { return w.Tree.ReadAt(q.AskerID, id, q.Time) })
}

// RunNaive answers the query with latest-value reads, ignoring
// timestamps — correct only if every ALP happens to sit exactly at the
// query time.
func (w *World) RunNaive(q RangeQuery) ([]int, error) {
	return w.runQuery(q, func(id SSVID) (float64, error) { return w.Tree.ReadLatest(q.AskerID, id) })
}

// runQuery reads the position of every agent older than q.MinAge with
// read and returns, ascending, those within q's range.
func (w *World) runQuery(q RangeQuery, read func(SSVID) (float64, error)) ([]int, error) {
	var agents []int
	for agent := 0; agent < len(w.pos0); agent++ {
		if w.age[agent] <= q.MinAge {
			continue
		}
		v, err := read(SSVID{Agent: agent, Attr: PosAttr})
		if err != nil {
			return nil, err
		}
		if v >= q.Center-q.Radius && v <= q.Center+q.Radius {
			agents = append(agents, agent)
		}
	}
	return agents, nil
}

// GroundTruth answers the query against the exact trajectories,
// ascending.
func (w *World) GroundTruth(q RangeQuery) []int {
	// An exact position is never an error, so neither is the answer.
	agents, _ := w.runQuery(q, func(id SSVID) (float64, error) { return w.TruePos(id.Agent, q.Time), nil })
	return agents
}

// SymmetricDiff counts elements in exactly one of two sorted int
// slices — the query-error metric of the experiments.
func SymmetricDiff(a, b []int) int {
	i, j, diff := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			diff++
			i++
		default:
			diff++
			j++
		}
	}
	return diff + (len(a) - i) + (len(b) - j)
}
