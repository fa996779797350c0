package mcdb_test

import (
	"fmt"

	"modeldata/internal/engine"
	"modeldata/internal/mcdb"
	"modeldata/internal/rng"
)

// ExampleDB_InstantiateBundled declares a stochastic table and asks a
// distributional question with tuple-bundle execution — the §2.1 MCDB
// workflow in miniature.
func ExampleDB_InstantiateBundled() {
	base := engine.NewDatabase()
	items := engine.MustNewTable("items", engine.Schema{
		{Name: "sku", Type: engine.TypeInt},
	})
	for i := 0; i < 5; i++ {
		items.MustInsert(engine.Int(int64(i)))
	}
	base.Put(items)

	db := mcdb.New(base)
	err := db.AddSpec(&mcdb.TableSpec{
		Name: "demand",
		Schema: engine.Schema{
			{Name: "sku", Type: engine.TypeInt},
			{Name: "qty", Type: engine.TypeFloat},
		},
		ForEach: "items",
		VG: mcdb.VG{Width: 1, Draw: func(_ engine.Row, r *rng.Stream, out [][]float64) error {
			for j := range out[0] {
				out[0][j] = rng.UniformDist{Lo: 0, Hi: 10}.Sample(r)
			}
			return nil
		}},
		UncertainCols: []int{1},
	})
	if err != nil {
		panic(err)
	}
	bundles, err := db.InstantiateBundled(2000, 1)
	if err != nil {
		panic(err)
	}
	totals, err := bundles["demand"].Estimate("qty", engine.AggSum, nil)
	if err != nil {
		panic(err)
	}
	est, err := mcdb.Summarize(totals)
	if err != nil {
		panic(err)
	}
	// 5 items × mean 5 units ⇒ E[total] = 25.
	fmt.Printf("expected total demand ≈ %.0f\n", est.Mean)

	p, err := mcdb.ThresholdProbability(totals, 35)
	if err != nil {
		panic(err)
	}
	fmt.Printf("P(total > 35) is small: %v\n", p < 0.2)
	// Output:
	// expected total demand ≈ 25
	// P(total > 35) is small: true
}
