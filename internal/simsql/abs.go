package simsql

import (
	"errors"
	"sort"
	"sync"

	"modeldata/internal/engine"
	"modeldata/internal/rng"
)

// This file implements the observation of Wang et al. [55], discussed
// in §2.1 of the paper: a step of an agent-based simulation is a
// self-join of the agent table — each agent's next state depends on the
// states of the agents it interacts with. Because agents typically
// interact only with a small group of "nearby" agents, the join can be
// partitioned by a locality key and executed in parallel, and SimSQL
// extends the idea from deterministic to stochastic simulations by
// letting the update draw randomness.

// ErrNilHook is returned when a required ABSStep hook is missing.
var ErrNilHook = errors.New("simsql: ABSStep requires PartKey, Near, Accumulate, and Update hooks")

// ABSStep describes one agent interaction step.
type ABSStep struct {
	// PartKey maps an agent row to its locality partition; agents only
	// interact within a partition.
	PartKey func(engine.Row) string
	// Near reports whether agent b influences agent a (evaluated
	// within a's partition, a ≠ b by row identity is NOT assumed — the
	// hook decides).
	Near func(a, b engine.Row) bool
	// Accumulate folds an influencing agent b into a's accumulator.
	Accumulate func(acc float64, b engine.Row) float64
	// Update computes a's next-state row from its accumulator (and the
	// count of influencing agents) using agent-private randomness.
	Update func(a engine.Row, acc float64, n int, r *rng.Stream) engine.Row
	// Workers bounds partition-level parallelism; zero means 4.
	Workers int
}

// Apply performs one simulation step over the agent table, returning
// the next-state table (same schema). The computation is the
// partitioned stochastic self-join: partitions run in parallel, each
// agent aggregates over its in-partition neighbors, then updates with a
// deterministic per-agent random stream (so results do not depend on
// scheduling).
func (s ABSStep) Apply(agents *engine.Table, seed uint64) (*engine.Table, error) {
	if s.PartKey == nil || s.Near == nil || s.Accumulate == nil || s.Update == nil {
		return nil, ErrNilHook
	}
	workers := s.Workers
	if workers <= 0 {
		workers = 4
	}
	// Pre-split one stream per agent, indexed by original row order, so
	// parallel partitions cannot perturb determinism.
	streams := rng.New(seed).SplitN(agents.Len())

	type member struct {
		idx int
		row engine.Row
	}
	parts := make(map[string][]member)
	for i, r := range agents.Rows {
		k := s.PartKey(r)
		parts[k] = append(parts[k], member{idx: i, row: r})
	}
	keys := make([]string, 0, len(parts))
	for k := range parts {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	next := make([]engine.Row, agents.Len())
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for _, k := range keys {
		wg.Add(1)
		go func(members []member) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for _, m := range members {
				acc := 0.0
				n := 0
				for _, o := range members {
					if o.idx == m.idx {
						continue
					}
					if s.Near(m.row, o.row) {
						acc = s.Accumulate(acc, o.row)
						n++
					}
				}
				next[m.idx] = s.Update(m.row, acc, n, streams[m.idx])
			}
		}(parts[k])
	}
	wg.Wait()

	out, err := engine.NewTable(agents.Name, agents.Schema)
	if err != nil {
		return nil, err
	}
	if err := out.InsertAll(next); err != nil {
		return nil, err
	}
	return out, nil
}
