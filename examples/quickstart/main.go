// Quickstart: the paper's §2.1 Monte Carlo Database example, end to
// end. We declare the SBP_DATA stochastic table —
//
//	CREATE TABLE SBP_DATA(PID, GENDER, SBP) AS
//	  FOR EACH p in PATIENTS
//	  WITH SBP AS Normal (SELECT s.MEAN, s.STD FROM SBP_PARAM s)
//	  SELECT p.PID, p.GENDER, b.VALUE FROM SBP b
//
// — realize it with tuple-bundle execution, and ask distributional
// questions of the query results.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"modeldata/internal/engine"
	"modeldata/internal/mcdb"
	"modeldata/internal/rng"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run declares SBP_DATA, realizes it once and as 1000 bundled worlds,
// and prints one realization and three distributional answers to w.
func run(w io.Writer) error {
	// 1. Deterministic base tables.
	base := engine.NewDatabase()
	patients := engine.MustNewTable("patients", engine.Schema{
		{Name: "pid", Type: engine.TypeInt},
		{Name: "gender", Type: engine.TypeString},
	})
	for i := 0; i < 40; i++ {
		g := "F"
		if i%2 == 0 {
			g = "M"
		}
		patients.MustInsert(engine.Int(int64(i)), engine.Str(g))
	}
	base.Put(patients)

	param := engine.MustNewTable("sbp_param", engine.Schema{
		{Name: "mean", Type: engine.TypeFloat},
		{Name: "std", Type: engine.TypeFloat},
	})
	param.MustInsert(engine.Float(120), engine.Float(15))
	base.Put(param)

	// 2. The stochastic table: FOR EACH patient, SBP ~ Normal(mean, std)
	//    with parameters read by a query over SBP_PARAM.
	db := mcdb.New(base)
	err := db.AddSpec(&mcdb.TableSpec{
		Name: "sbp_data",
		Schema: engine.Schema{
			{Name: "pid", Type: engine.TypeInt},
			{Name: "gender", Type: engine.TypeString},
			{Name: "sbp", Type: engine.TypeFloat},
		},
		ForEach: "patients",
		Params: func(db *engine.Database, outer engine.Row) (engine.Row, error) {
			p, err := db.Get("sbp_param")
			if err != nil {
				return nil, err
			}
			return p.Rows[0], nil
		},
		VG:            mcdb.NormalVG(),
		UncertainCols: []int{2},
	})
	if err != nil {
		return err
	}

	// 3. One realization is an ordinary database instance.
	inst, err := db.Instantiate(rng.New(1))
	if err != nil {
		return err
	}
	tbl, err := inst.Get("sbp_data")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "one realization of SBP_DATA:")
	fmt.Fprintln(w, engine.From(tbl).Limit(5).MustRun())

	// 4. Monte Carlo with tuple bundles: the plan executes once, each
	//    uncertain cell carries its 1000 instantiations.
	bundles, err := db.InstantiateBundled(1000, 7)
	if err != nil {
		return err
	}
	bt := bundles["sbp_data"]

	// "What is the average SBP of male patients?"
	males := bt.FilterDet(func(det engine.Row) bool { return det[1].AsString() == "M" })
	maleMeans, err := males.Estimate("sbp", engine.AggAvg, nil)
	if err != nil {
		return err
	}
	est, err := mcdb.Summarize(maleMeans)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "male mean SBP across 1000 Monte Carlo worlds: %v\n", est)

	// "How likely is a hypertension count above 8?"
	counts, err := bt.Estimate("sbp", engine.AggCount, func(_ engine.Row, unc []float64) bool {
		return unc[0] > 140
	})
	if err != nil {
		return err
	}
	p, err := mcdb.ThresholdProbability(counts, 8)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "P(more than 8 hypertensive patients) ≈ %.3f\n", p)

	// 5. MCDB-R risk analysis: the 99.9th percentile of the count.
	q, err := mcdb.RiskQuantile(counts, 0.999)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "0.999-quantile of the hypertensive count ≈ %.1f\n", q)
	return nil
}
