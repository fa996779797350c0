// Epidemic intervention (§2.4): the Indemics division of labour. The
// compute side advances a contact-network SEIR epidemic day by day; at
// each observation time a relational snapshot is queried with SQL-style
// operators, and Algorithm 1 of the paper — vaccinate all preschoolers
// once more than 1% of them are infectious — is applied interactively.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"modeldata/internal/engine"
	"modeldata/internal/indemics"
	"modeldata/internal/rng"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run simulates the epidemic without and with Algorithm 1 and prints
// the day-by-day SQL trace and the outcome to w.
func run(w io.Writer) error {
	build := func() (*indemics.Sim, error) {
		net, err := indemics.GeneratePopulation(indemics.PopulationConfig{
			N: 5000, MeanDegree: 8, Rewire: 0.1,
		}, rng.New(11))
		if err != nil {
			return nil, err
		}
		sim, err := indemics.NewSim(net, indemics.Params{
			Beta: 0.25, LatentDays: 2, InfectiousDays: 4,
		}, 13)
		if err != nil {
			return nil, err
		}
		sim.Seed(10)
		return sim, nil
	}

	// Baseline: no intervention.
	baseline, err := build()
	if err != nil {
		return err
	}
	if err := baseline.Run(120, nil); err != nil {
		return err
	}

	// Intervention: Algorithm 1 expressed in SQL, plus a running
	// per-day query trace against the relational snapshot.
	policy, firedDay := indemics.VaccinatePreschoolersPolicy(0.01)
	managed, err := build()
	if err != nil {
		return err
	}
	err = managed.Run(120, func(day int, db *engine.Database, sim *indemics.Sim) error {
		if day%20 == 0 {
			infected, err := db.QueryScalar(`SELECT COUNT(*) FROM person WHERE state = 'I'`)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "day %3d: %4.0f infectious (SQL over relational snapshot)\n", day, infected)
		}
		return policy(day, db, sim)
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w)
	fmt.Fprintf(w, "attack rate without intervention: %.1f%%\n", 100*baseline.AttackRate())
	fmt.Fprintf(w, "attack rate with Algorithm 1:     %.1f%%\n", 100*managed.AttackRate())
	if *firedDay >= 0 {
		fmt.Fprintf(w, "preschool vaccination triggered on day %d\n", *firedDay)
	} else {
		fmt.Fprintln(w, "the 1% preschool trigger never fired")
	}
	counts := managed.Counts()
	fmt.Fprintf(w, "final states: S=%d E=%d I=%d R=%d V=%d\n",
		counts[indemics.Susceptible], counts[indemics.Exposed],
		counts[indemics.Infectious], counts[indemics.Recovered],
		counts[indemics.Vaccinated])
	return nil
}
