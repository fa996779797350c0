// Package prov implements why-provenance for relational operators: each
// output tuple is annotated with the set of input tuples that contributed
// to it. The annotation algebra is the set-union semiring over input-tuple
// leaves — both the join combinator (⊗) and the aggregation/dedup
// combinator (⊕) are set union, which makes annotations insensitive to
// operator reassociation and reordering. That invariance is load-bearing:
// the planner may reorder joins, and the provenance of a row must not
// depend on the order the optimizer picked.
//
// Sets are interned in an Arena: each distinct set of leaves is stored
// once and identified by a small integer handle (Set). Combining two sets
// that were combined before is a map lookup, not an allocation, so wide
// joins and large group-bys stay cheap. An Arena serves one query
// execution and is not safe for concurrent use.
package prov

import (
	"encoding/binary"
	"sort"
)

// Leaf identifies one input tuple: a source table name plus the row's
// index in that table at annotation time.
type Leaf struct {
	Table string
	Row   int
}

// Set is a handle to an interned set of leaves within an Arena. The zero
// Set is the empty set in every arena.
type Set int32

// Empty is the annotation of a tuple with no recorded inputs (for
// example, the synthesized all-table group of an empty aggregation).
const Empty Set = 0

// Arena interns leaves and leaf sets for one query execution.
type Arena struct {
	leaves  []Leaf         // leaf id -> leaf
	leafIDs map[Leaf]int32 // leaf -> leaf id

	sets    [][]int32      // set handle -> sorted unique leaf ids
	setIDs  map[string]Set // canonical encoding -> handle
	joinIDs map[[2]Set]Set // memoized pairwise unions

	keyBuf []byte
	tmp    []int32
}

// NewArena returns an empty arena whose Set 0 is the empty set.
func NewArena() *Arena {
	a := &Arena{
		leafIDs: make(map[Leaf]int32),
		setIDs:  make(map[string]Set),
		joinIDs: make(map[[2]Set]Set),
	}
	a.sets = append(a.sets, nil) // handle 0: empty set
	a.setIDs[""] = Empty
	return a
}

// leafID interns a leaf and returns its id.
func (a *Arena) leafID(l Leaf) int32 {
	if id, ok := a.leafIDs[l]; ok {
		return id
	}
	id := int32(len(a.leaves))
	a.leaves = append(a.leaves, l)
	a.leafIDs[l] = id
	return id
}

// Leaf returns the singleton set {table:row}.
func (a *Arena) Leaf(table string, row int) Set {
	return a.intern([]int32{a.leafID(Leaf{Table: table, Row: row})})
}

// intern returns the handle for the given sorted, duplicate-free id
// slice, adding it to the arena if new. The slice is copied when stored.
func (a *Arena) intern(ids []int32) Set {
	a.keyBuf = a.keyBuf[:0]
	for _, id := range ids {
		a.keyBuf = binary.AppendVarint(a.keyBuf, int64(id))
	}
	if s, ok := a.setIDs[string(a.keyBuf)]; ok {
		return s
	}
	s := Set(len(a.sets))
	stored := make([]int32, len(ids))
	copy(stored, ids)
	a.sets = append(a.sets, stored)
	a.setIDs[string(a.keyBuf)] = s
	return s
}

// Join returns the ⊗-combination of two annotations: the union of their
// leaf sets. In the why-provenance semiring ⊗ and ⊕ coincide.
func (a *Arena) Join(x, y Set) Set {
	if x == y || y == Empty {
		return x
	}
	if x == Empty {
		return y
	}
	if x > y {
		x, y = y, x
	}
	k := [2]Set{x, y}
	if s, ok := a.joinIDs[k]; ok {
		return s
	}
	s := a.intern(mergeSorted(a.tmpBuf(), a.sets[x], a.sets[y]))
	a.joinIDs[k] = s
	return s
}

// Union is the ⊕-combination used by aggregation and duplicate
// elimination. It is identical to Join in this semiring; the separate
// name keeps call sites self-documenting.
func (a *Arena) Union(x, y Set) Set { return a.Join(x, y) }

// SetOf interns the union of the given leaves in one pass, avoiding the
// pairwise memo for bulk construction (e.g. one lineage set per Monte
// Carlo iteration covering hundreds of tuples).
func (a *Arena) SetOf(leaves []Leaf) Set {
	ids := a.tmpBuf()
	for _, l := range leaves {
		ids = append(ids, a.leafID(l))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ids = dedupSorted(ids)
	s := a.intern(ids)
	a.tmp = ids[:0]
	return s
}

// Leaves returns the members of a set ordered by table then row. The
// returned slice is freshly allocated.
func (a *Arena) Leaves(s Set) []Leaf {
	if s < 0 || int(s) >= len(a.sets) {
		return nil
	}
	ids := a.sets[s]
	out := make([]Leaf, len(ids))
	for i, id := range ids {
		out[i] = a.leaves[id]
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Row < out[j].Row
	})
	return out
}

// Size returns the cardinality of a set without materializing leaves.
func (a *Arena) Size(s Set) int {
	if s < 0 || int(s) >= len(a.sets) {
		return 0
	}
	return len(a.sets[s])
}

func (a *Arena) tmpBuf() []int32 {
	if a.tmp == nil {
		a.tmp = make([]int32, 0, 16)
	}
	return a.tmp[:0]
}

// mergeSorted writes the sorted union of x and y into dst.
func mergeSorted(dst, x, y []int32) []int32 {
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			dst = append(dst, x[i])
			i++
		case x[i] > y[j]:
			dst = append(dst, y[j])
			j++
		default:
			dst = append(dst, x[i])
			i++
			j++
		}
	}
	dst = append(dst, x[i:]...)
	dst = append(dst, y[j:]...)
	return dst
}

// dedupSorted removes adjacent duplicates in place.
func dedupSorted(ids []int32) []int32 {
	if len(ids) < 2 {
		return ids
	}
	w := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[w-1] {
			ids[w] = ids[i]
			w++
		}
	}
	return ids[:w]
}
