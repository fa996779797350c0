package engine

// Types the query builder's operations are described with. The
// relational operators themselves are the ColumnBlock methods in
// colops.go.

import "fmt"

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
