// Command sqlcli is an interactive SQL shell over the engine — the
// experimenter's console of the Indemics workflow (§2.4). It boots a
// small epidemic, pauses it after the requested number of days, loads
// the relational snapshot, and then reads SQL statements from stdin.
//
// Usage:
//
//	sqlcli [-people 2000] [-days 30] [-seed 1]
//	> SELECT state, COUNT(*) AS n FROM person GROUP BY state;
//	> SELECT pid FROM person WHERE age <= 4 AND state = 'I' LIMIT 5;
//	> EXPLAIN SELECT person.age FROM person JOIN contact ON person.pid = contact.src;
//
// EXPLAIN [JSON] SELECT renders the cost-based query plan (join
// order, pushed filters, cardinality estimates) without running the
// statement.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"modeldata/internal/indemics"
	"modeldata/internal/rng"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sqlcli: ")
	people := flag.Int("people", 2000, "population size")
	days := flag.Int("days", 30, "days to simulate before pausing")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()
	if err := run(os.Stdout, os.Stdin, *people, *days, *seed); err != nil {
		log.Fatal(err)
	}
}

// run simulates the epidemic for days over people, then answers each
// statement line of r on w until r ends or a line says \q, quit or exit.
// A statement's error is printed and the shell goes on.
func run(w io.Writer, r io.Reader, people, days int, seed uint64) error {
	net, err := indemics.GeneratePopulation(indemics.PopulationConfig{
		N: people, MeanDegree: 8, Rewire: 0.1,
	}, rng.New(seed))
	if err != nil {
		return err
	}
	sim, err := indemics.NewSim(net, indemics.Params{
		Beta: 0.25, LatentDays: 2, InfectiousDays: 4,
	}, seed+1)
	if err != nil {
		return err
	}
	sim.Seed(5)
	if err := sim.Run(days, nil); err != nil {
		return err
	}
	db := sim.Database()
	fmt.Fprintf(w, "epidemic paused at day %d over %d people; tables: person, contact\n", days, people)
	fmt.Fprintln(w, `type SQL statements (end with newline), EXPLAIN [JSON] SELECT ... to show plans, or \q to quit`)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(w, "> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == `\q` || strings.EqualFold(line, "quit") || strings.EqualFold(line, "exit") {
			break
		}
		res, err := db.Query(line)
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			continue
		}
		fmt.Fprint(w, res)
	}
	return sc.Err()
}
