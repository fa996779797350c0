// Package pdesmas reproduces the PDES-MAS architecture studied in §2.4
// of the paper (Suryanarayanan & Theodoropoulos, TOMACS 2013): parallel
// "agent logical processes" (ALPs) simulate massive agent populations
// and progress through simulated time at different rates, while a tree
// of "communication logical processes" (CLPs) maintains timestamped
// histories of shared-state variables (SSVs) — the externally viewable
// agent attributes such as position. Agents discover neighbors through
// instantaneous range queries ("all agents within one mile, right now,
// over 25 years old"), which is hard to answer correctly precisely
// because ALPs are unsynchronized.
//
// The package implements (i) the CLP tree with SSV histories, access
// accounting, and hot-SSV migration toward the accessing ALP, and
// (ii) two range-query algorithms: the naive latest-value read and the
// timestamp-synchronized read, whose accuracy the experiments compare
// against a fully synchronized ground truth.
package pdesmas

import (
	"errors"
	"fmt"
	"sort"
)

// Common errors.
var (
	ErrNoSSV   = errors.New("pdesmas: no such shared-state variable")
	ErrNoALP   = errors.New("pdesmas: no such agent logical process")
	ErrBadTree = errors.New("pdesmas: invalid tree configuration")
)

// SSVID identifies one shared-state variable: a public attribute of one
// agent.
type SSVID struct {
	Agent int
	Attr  string
}

// versioned is one timestamped SSV write.
type versioned struct {
	T float64
	V float64
}

// history is the timestamped value sequence of one SSV, kept sorted by
// write time (ALPs write monotonically).
type history struct {
	values []versioned
}

// write appends a value at time t. Out-of-order writes (possible during
// optimistic execution) are inserted in place.
func (h *history) write(t, v float64) {
	n := len(h.values)
	if n == 0 || h.values[n-1].T <= t {
		h.values = append(h.values, versioned{T: t, V: v})
		return
	}
	i := sort.Search(n, func(k int) bool { return h.values[k].T > t })
	h.values = append(h.values, versioned{})
	copy(h.values[i+1:], h.values[i:])
	h.values[i] = versioned{T: t, V: v}
}

// at returns the value in effect at time t: the latest write with
// timestamp ≤ t.
func (h *history) at(t float64) (v float64, ok bool) {
	i := sort.Search(len(h.values), func(k int) bool { return h.values[k].T > t })
	if i == 0 {
		return 0, false
	}
	return h.values[i-1].V, true
}

// latest returns the most recent value regardless of timestamp.
func (h *history) latest() (float64, bool) {
	if len(h.values) == 0 {
		return 0, false
	}
	return h.values[len(h.values)-1].V, true
}

// clp is one communication logical process: a node of the CLP tree
// holding a shard of the SSVs.
type clp struct {
	parent   *clp
	children []*clp
	ssvs     map[SSVID]*history
	// access[id][alp] counts reads of each SSV issued by each ALP,
	// driving per-SSV migration decisions.
	access map[SSVID]map[int]int
}

func newCLP() *clp {
	return &clp{ssvs: make(map[SSVID]*history), access: make(map[SSVID]map[int]int)}
}

// recordAccess bumps the per-SSV, per-ALP access counter.
func (c *clp) recordAccess(id SSVID, alpID int) {
	m, ok := c.access[id]
	if !ok {
		m = make(map[int]int)
		c.access[id] = m
	}
	m[alpID]++
}

// Tree is the CLP tree. Leaves host ALPs; SSVs live at exactly one CLP
// and may migrate.
type Tree struct {
	leaves []*clp
	nodes  []*clp
	// home maps each SSV to the CLP currently holding it.
	home map[SSVID]*clp
	// alpLeaf maps ALP id → its attachment leaf.
	alpLeaf map[int]*clp
	// Hops accumulates tree-edge traversals for all routed operations;
	// the load-balancing experiments read it.
	Hops int
}

// NewTree builds a balanced binary CLP tree with the given number of
// leaves (must be ≥ 1).
func NewTree(leaves int) (*Tree, error) {
	if leaves < 1 {
		return nil, fmt.Errorf("%w: %d leaves", ErrBadTree, leaves)
	}
	t := &Tree{home: make(map[SSVID]*clp), alpLeaf: make(map[int]*clp)}
	mk := func() *clp {
		c := newCLP()
		t.nodes = append(t.nodes, c)
		return c
	}
	// Build bottom-up: level of leaves, then pair upward.
	level := make([]*clp, leaves)
	for i := range level {
		level[i] = mk()
		t.leaves = append(t.leaves, level[i])
	}
	for len(level) > 1 {
		var up []*clp
		for i := 0; i < len(level); i += 2 {
			p := mk()
			p.children = append(p.children, level[i])
			level[i].parent = p
			if i+1 < len(level) {
				p.children = append(p.children, level[i+1])
				level[i+1].parent = p
			}
			up = append(up, p)
		}
		level = up
	}
	return t, nil
}

// AttachALP binds an ALP to a leaf CLP (its communication port).
func (t *Tree) AttachALP(alpID, leaf int) error {
	if leaf < 0 || leaf >= len(t.leaves) {
		return fmt.Errorf("%w: leaf %d", ErrBadTree, leaf)
	}
	t.alpLeaf[alpID] = t.leaves[leaf]
	return nil
}

// hopDistance counts tree edges between two CLPs.
func hopDistance(a, b *clp) int {
	depth := func(c *clp) int {
		d := 0
		for c.parent != nil {
			c = c.parent
			d++
		}
		return d
	}
	da, db := depth(a), depth(b)
	hops := 0
	for da > db {
		a = a.parent
		da--
		hops++
	}
	for db > da {
		b = b.parent
		db--
		hops++
	}
	for a != b {
		a = a.parent
		b = b.parent
		hops += 2
	}
	return hops
}

// homeFor returns (creating if needed) the home CLP of an SSV; new SSVs
// are placed on the leaf derived from the agent id, spreading state
// across the tree.
func (t *Tree) homeFor(id SSVID, create bool) (*clp, error) {
	if c, ok := t.home[id]; ok {
		return c, nil
	}
	if !create {
		return nil, fmt.Errorf("%w: %v", ErrNoSSV, id)
	}
	c := t.leaves[id.Agent%len(t.leaves)]
	t.home[id] = c
	c.ssvs[id] = &history{}
	return c, nil
}

// Write records a timestamped SSV write issued by the given ALP.
func (t *Tree) Write(alpID int, id SSVID, time, value float64) error {
	src, ok := t.alpLeaf[alpID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoALP, alpID)
	}
	dst, err := t.homeFor(id, true)
	if err != nil {
		return err
	}
	t.Hops += hopDistance(src, dst)
	dst.ssvs[id].write(time, value)
	return nil
}

// ReadAt reads the SSV value in effect at the given time on behalf of
// an ALP, recording access statistics and routing hops.
func (t *Tree) ReadAt(alpID int, id SSVID, time float64) (float64, error) {
	src, ok := t.alpLeaf[alpID]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoALP, alpID)
	}
	c, err := t.homeFor(id, false)
	if err != nil {
		return 0, err
	}
	t.Hops += hopDistance(src, c)
	c.recordAccess(id, alpID)
	val, ok := c.ssvs[id].at(time)
	if !ok {
		return 0, fmt.Errorf("%w: %v has no value at t=%g", ErrNoSSV, id, time)
	}
	return val, nil
}

// ReadLatest reads the most recent SSV value regardless of timestamp —
// the naive instantaneous semantics.
func (t *Tree) ReadLatest(alpID int, id SSVID) (float64, error) {
	src, ok := t.alpLeaf[alpID]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoALP, alpID)
	}
	c, err := t.homeFor(id, false)
	if err != nil {
		return 0, err
	}
	t.Hops += hopDistance(src, c)
	c.recordAccess(id, alpID)
	v, ok2 := c.ssvs[id].latest()
	if !ok2 {
		return 0, fmt.Errorf("%w: %v is empty", ErrNoSSV, id)
	}
	return v, nil
}

// SSVs returns the ids of all registered SSVs in deterministic order.
func (t *Tree) SSVs() []SSVID {
	out := make([]SSVID, 0, len(t.home))
	for id := range t.home {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Agent != out[j].Agent {
			return out[i].Agent < out[j].Agent
		}
		return out[i].Attr < out[j].Attr
	})
	return out
}

// Migrate moves every SSV to the attachment leaf of its most frequent
// accessor — the tree reconfiguration that "move[s] SSVs closer to the
// ALPs that are accessing them". Access counters reset afterwards. It
// returns the number of SSVs that moved.
func (t *Tree) Migrate() int {
	moved := 0
	for _, id := range t.SSVs() {
		cur := t.home[id]
		counts := cur.access[id]
		bestALP, bestCount := -1, 0
		// Deterministic tie-break: lowest ALP id wins.
		alps := make([]int, 0, len(counts))
		for a := range counts {
			alps = append(alps, a)
		}
		sort.Ints(alps)
		for _, a := range alps {
			if counts[a] > bestCount {
				bestALP, bestCount = a, counts[a]
			}
		}
		if bestALP < 0 {
			continue
		}
		dst := t.alpLeaf[bestALP]
		if dst == nil || dst == cur {
			continue
		}
		dst.ssvs[id] = cur.ssvs[id]
		delete(cur.ssvs, id)
		t.home[id] = dst
		moved++
	}
	for _, c := range t.nodes {
		c.access = make(map[SSVID]map[int]int)
	}
	return moved
}
