// Epidemic intervention (§2.4): the Indemics division of labour. The
// compute side advances a contact-network SEIR epidemic day by day; at
// each observation time a relational snapshot is queried with SQL-style
// operators, and Algorithm 1 of the paper — vaccinate all preschoolers
// once more than 1% of them are infectious — is applied interactively.
package main

import (
	"fmt"
	"log"

	"modeldata/internal/engine"
	"modeldata/internal/indemics"
	"modeldata/internal/rng"
)

func main() {
	log.SetFlags(0)

	build := func() *indemics.Sim {
		net, err := indemics.GeneratePopulation(indemics.PopulationConfig{
			N: 5000, MeanDegree: 8, Rewire: 0.1,
		}, rng.New(11))
		if err != nil {
			log.Fatal(err)
		}
		sim, err := indemics.NewSim(net, indemics.Params{
			Beta: 0.25, LatentDays: 2, InfectiousDays: 4,
		}, 13)
		if err != nil {
			log.Fatal(err)
		}
		sim.Seed(10)
		return sim
	}

	// Baseline: no intervention.
	baseline := build()
	if err := baseline.Run(120, nil); err != nil {
		log.Fatal(err)
	}

	// Intervention: Algorithm 1 expressed in SQL, plus a running
	// per-day query trace against the relational snapshot.
	policy, firedDay := indemics.VaccinatePreschoolersPolicy(0.01)
	managed := build()
	err := managed.Run(120, func(day int, db *engine.Database, sim *indemics.Sim) error {
		if day%20 == 0 {
			infected, err := db.QueryScalar(`SELECT COUNT(*) FROM person WHERE state = 'I'`)
			if err != nil {
				return err
			}
			fmt.Printf("day %3d: %4.0f infectious (SQL over relational snapshot)\n", day, infected)
		}
		return policy(day, db, sim)
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Printf("attack rate without intervention: %.1f%%\n", 100*baseline.AttackRate())
	fmt.Printf("attack rate with Algorithm 1:     %.1f%%\n", 100*managed.AttackRate())
	if *firedDay >= 0 {
		fmt.Printf("preschool vaccination triggered on day %d\n", *firedDay)
	} else {
		fmt.Println("the 1% preschool trigger never fired")
	}
	counts := managed.Counts()
	fmt.Printf("final states: S=%d E=%d I=%d R=%d V=%d\n",
		counts[indemics.Susceptible], counts[indemics.Exposed],
		counts[indemics.Infectious], counts[indemics.Recovered],
		counts[indemics.Vaccinated])
}
