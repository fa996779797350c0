package engine

// Types the query builder's operations are described with, plus the
// paper's ABS-step-as-self-join. The relational operators themselves
// are the ColumnBlock methods in colops.go.

import (
	"fmt"
	"sort"
	"sync"
)

// Predicate decides whether a row qualifies.
type Predicate func(Row) bool

// PartitionedSelfJoin implements the ABS-step-as-self-join observation
// of Wang et al. (§2.1): agents (rows) interact only with "nearby"
// agents, so the self-join can be partitioned by a locality key and the
// partitions processed in parallel. partKey maps a row to its partition;
// pred and combine define the join condition and output row. Rows only
// join within a partition. The output schema is given by outSchema.
func PartitionedSelfJoin(t *Table, partKey func(Row) string,
	pred func(a, b Row) bool, combine func(a, b Row) Row,
	outSchema Schema, workers int) *Table {
	if workers < 1 {
		workers = 1
	}
	parts := make(map[string][]Row)
	for _, r := range t.Rows {
		k := partKey(r)
		parts[k] = append(parts[k], r)
	}
	keys := make([]string, 0, len(parts))
	for k := range parts {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic output order

	results := make([][]Row, len(keys))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, k := range keys {
		wg.Add(1)
		go func(i int, rows []Row) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var local []Row
			for _, a := range rows {
				for _, b := range rows {
					if pred(a, b) {
						local = append(local, combine(a, b))
					}
				}
			}
			results[i] = local
		}(i, parts[k])
	}
	wg.Wait()
	out := &Table{Name: t.Name + "_selfjoin", Schema: outSchema.Clone()}
	for _, rs := range results {
		out.Rows = append(out.Rows, rs...)
	}
	return out
}

// AggFunc identifies an aggregate function.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String names the aggregate.
func (a AggFunc) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return fmt.Sprintf("AggFunc(%d)", uint8(a))
}

// Aggregate describes one aggregate output: fn applied to column Col
// (ignored for COUNT), labeled As in the output schema.
type Aggregate struct {
	Fn  AggFunc
	Col string
	As  string
}
