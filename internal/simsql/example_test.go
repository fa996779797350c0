package simsql_test

import (
	"context"
	"fmt"

	"modeldata/internal/engine"
	"modeldata/internal/rng"
	"modeldata/internal/simsql"
)

// ExampleChain_RunCtx generates a database-valued Markov chain whose
// single table doubles (deterministically here) from version to
// version — SimSQL's recursive versioned tables in miniature.
func ExampleChain_RunCtx() {
	schema := engine.Schema{{Name: "v", Type: engine.TypeFloat}}
	chain := &simsql.Chain{Defs: []simsql.TableDef{{
		Name: "stock",
		Generate: func(state *engine.Database, r *rng.Stream) (*engine.Table, error) {
			prev := 1.0
			if pt, err := state.Get(simsql.PrevName("stock")); err == nil {
				prev = 2 * pt.Rows[0][0].AsFloat()
			}
			t, err := engine.NewTable("stock", schema)
			if err != nil {
				return nil, err
			}
			err = t.Insert(engine.Row{engine.Float(prev)})
			return t, err
		},
	}}}
	realz, err := chain.RunCtx(context.Background(), 4, 1)
	if err != nil {
		panic(err)
	}
	trace, err := realz.Trace(func(db *engine.Database) (float64, error) {
		t, err := db.Get("stock")
		if err != nil {
			return 0, err
		}
		return t.Rows[0][0].AsFloat(), nil
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(trace)
	// Output:
	// [1 2 4 8 16]
}
