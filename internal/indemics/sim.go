package indemics

import (
	"fmt"
	"math"

	"modeldata/internal/engine"
	"modeldata/internal/rng"
)

// Params are the disease-dynamics parameters of the transition
// functions.
type Params struct {
	// Beta is the per-day transmission rate along a unit-weight edge:
	// an infectious person transmits to a susceptible contact with
	// probability 1 − exp(−Beta·weight) each day.
	Beta float64
	// LatentDays is the mean E→I delay; InfectiousDays the mean I→R
	// duration. Both are geometric with these means.
	LatentDays     float64
	InfectiousDays float64
	// FearGrowth raises a person's fear level when a neighbor is
	// infectious; fear scales contact weights down by (1 − Fear).
	FearGrowth float64
}

func (p Params) validate() error {
	if p.Beta <= 0 || p.LatentDays <= 0 || p.InfectiousDays <= 0 {
		return fmt.Errorf("%w: %+v", ErrBadParams, p)
	}
	return nil
}

// Sim is the compute-side ("HPC") epidemic simulation: it owns the
// network state and advances it day by day between observation times.
type Sim struct {
	Net    *Network
	Params Params
	Day    int
	r      *rng.Stream
}

// NewSim creates a simulation over the network.
func NewSim(net *Network, params Params, seed uint64) (*Sim, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	return &Sim{Net: net, Params: params, r: rng.New(seed)}, nil
}

// Seed infects k randomly chosen susceptible people.
func (s *Sim) Seed(k int) {
	n := len(s.Net.People)
	for tries := 0; k > 0 && tries < 100*n; tries++ {
		i := s.r.Intn(n)
		if s.Net.People[i].State == Susceptible {
			s.Net.People[i].State = Infectious
			s.Net.People[i].daysInState = 0
			k--
		}
	}
}

// Step advances the epidemic by one day: infectious people expose
// susceptible contacts, exposed people progress to infectious, and
// infectious people recover, with fear levels rising near infection —
// the node/edge transition functions of §2.4.
func (s *Sim) Step() {
	people := s.Net.People
	pRecover := 1 / s.Params.InfectiousDays
	pActivate := 1 / s.Params.LatentDays

	// Phase 1: transmission, computed against the start-of-day states.
	newlyExposed := make([]int, 0)
	for i := range people {
		if people[i].State != Infectious {
			continue
		}
		for _, c := range s.Net.Adj[i] {
			dst := &people[c.To]
			if dst.State != Susceptible {
				continue
			}
			w := c.Weight * (1 - dst.Fear)
			pInfect := 1 - math.Exp(-s.Params.Beta*w)
			if s.r.Float64() < pInfect {
				newlyExposed = append(newlyExposed, c.To)
			}
			if s.Params.FearGrowth > 0 {
				dst.Fear += s.Params.FearGrowth * (1 - dst.Fear)
			}
		}
	}
	// Phase 2: disease progression.
	for i := range people {
		p := &people[i]
		switch p.State {
		case Exposed:
			if s.r.Float64() < pActivate {
				p.State = Infectious
				p.daysInState = 0
				continue
			}
		case Infectious:
			if s.r.Float64() < pRecover {
				p.State = Recovered
				p.daysInState = 0
				continue
			}
		}
		p.daysInState++
	}
	// Phase 3: apply the day's exposures (duplicates are harmless).
	for _, id := range newlyExposed {
		if people[id].State == Susceptible {
			people[id].State = Exposed
			people[id].daysInState = 0
		}
	}
	s.Day++
}

// Counts tallies the population by health state.
func (s *Sim) Counts() map[Health]int {
	out := make(map[Health]int, 5)
	for i := range s.Net.People {
		out[s.Net.People[i].State]++
	}
	return out
}

// AttackRate returns the fraction of the population that has left the
// susceptible state through infection (E+I+R).
func (s *Sim) AttackRate() float64 {
	c := s.Counts()
	n := len(s.Net.People)
	return float64(c[Exposed]+c[Infectious]+c[Recovered]) / float64(n)
}

// Vaccinate applies the vaccination action to the given people:
// susceptible (and exposed, modeling post-exposure prophylaxis)
// individuals become Vaccinated and stop participating in transmission.
func (s *Sim) Vaccinate(ids []int) error {
	for _, id := range ids {
		if id < 0 || id >= len(s.Net.People) {
			return fmt.Errorf("%w: %d", ErrNoPerson, id)
		}
		p := &s.Net.People[id]
		if p.State == Susceptible || p.State == Exposed {
			p.State = Vaccinated
			p.daysInState = 0
		}
	}
	return nil
}

// PersonTable snapshots the person states into a relational table —
// the RDBMS side of the Indemics division of labour. Columns: pid, age,
// state, fear, days_in_state.
func (s *Sim) PersonTable() *engine.Table {
	t := engine.MustNewTable("person", engine.Schema{
		{Name: "pid", Type: engine.TypeInt},
		{Name: "age", Type: engine.TypeInt},
		{Name: "state", Type: engine.TypeString},
		{Name: "fear", Type: engine.TypeFloat},
		{Name: "days_in_state", Type: engine.TypeInt},
	})
	for i := range s.Net.People {
		p := &s.Net.People[i]
		t.MustInsert(
			engine.Int(int64(p.ID)),
			engine.Int(int64(p.Age)),
			engine.Str(p.State.String()),
			engine.Float(p.Fear),
			engine.Int(int64(p.daysInState)),
		)
	}
	return t
}

// Database snapshots the full simulation state as a relational
// database: person plus contact tables.
func (s *Sim) Database() *engine.Database {
	db := engine.NewDatabase()
	db.Put(s.PersonTable())
	contacts := engine.MustNewTable("contact", engine.Schema{
		{Name: "src", Type: engine.TypeInt},
		{Name: "dst", Type: engine.TypeInt},
		{Name: "weight", Type: engine.TypeFloat},
	})
	for i, adj := range s.Net.Adj {
		for _, c := range adj {
			if i < c.To { // one row per undirected edge
				contacts.MustInsert(engine.Int(int64(i)), engine.Int(int64(c.To)), engine.Float(c.Weight))
			}
		}
	}
	db.Put(contacts)
	return db
}

// Observer is invoked at each observation time with the current day and
// a fresh relational snapshot; it may inspect the state with queries
// and apply interventions to the simulation. This is the interactive
// extension to partially observed Markov decision processes that §2.4
// describes.
type Observer func(day int, db *engine.Database, sim *Sim) error

// Run advances the simulation for days steps, invoking the observer
// after each day's transition (observe may be nil). The per-day
// snapshot carries the person table; observers needing the (much
// larger) contact table can call sim.Database() for a full snapshot.
func (s *Sim) Run(days int, observe Observer) error {
	for d := 0; d < days; d++ {
		s.Step()
		if observe != nil {
			db := engine.NewDatabase()
			db.Put(s.PersonTable())
			if err := observe(s.Day, db, s); err != nil {
				return fmt.Errorf("indemics: observer at day %d: %w", s.Day, err)
			}
		}
	}
	return nil
}

// PIDs extracts the pid column of a query result as ints — the common
// "intervention subpopulation" shape of Algorithm 1.
func PIDs(t *engine.Table) ([]int, error) {
	col, err := t.FloatColumn("pid")
	if err != nil {
		// The pid column may be prefixed after joins; try common forms.
		for _, c := range t.Schema {
			if len(c.Name) >= 4 && c.Name[len(c.Name)-4:] == ".pid" {
				col, err = t.FloatColumn(c.Name)
				break
			}
		}
		if err != nil {
			return nil, err
		}
	}
	out := make([]int, len(col))
	for i, v := range col {
		out[i] = int(v)
	}
	return out, nil
}

// VaccinatePreschoolersPolicy is Algorithm 1 of the paper, SQL over the
// relational snapshot, mirroring the paper's listing:
//
//	CREATE TABLE Preschool(pid) AS
//	  (SELECT pid FROM Person WHERE 0 <= age <= 4);
//	DEFINE nPreschool AS (SELECT COUNT(pid) FROM Preschool);
//	for day = 1 to 300:
//	  WITH InfectedPreschool(pid) AS (SELECT pid FROM Preschool,
//	       InfectedPerson WHERE Preschool.pid = InfectedPerson.pid);
//	  DEFINE nInfectedPreschool AS (SELECT COUNT(pid) FROM ...);
//	  if nInfectedPreschool > 1% × nPreschool:
//	     Apply vaccines to SELECT(pid FROM Preschool)
//
// After each day, once more than triggerFrac of the preschoolers
// (0 ≤ age ≤ 4) are infectious, it vaccinates all of them, once. It
// returns the observer and a pointer to the day the intervention fired
// (-1 if never).
func VaccinatePreschoolersPolicy(triggerFrac float64) (Observer, *int) {
	a := newAlgorithm1(triggerFrac)
	return a.observe, &a.fired
}

// algorithm1 is the state of one VaccinatePreschoolersPolicy: its three
// statements, prepared when the policy is made and run against each
// day's snapshot, and the day it fired.
type algorithm1 struct {
	trigger                     float64
	pids, nPreschool, nInfected *engine.Prepared
	fired                       int
}

func newAlgorithm1(triggerFrac float64) *algorithm1 {
	const preschool = `FROM person WHERE age BETWEEN 0 AND 4`
	return &algorithm1{
		trigger:    triggerFrac,
		pids:       mustPrepare(`SELECT pid ` + preschool),
		nPreschool: mustPrepare(`SELECT COUNT(pid) ` + preschool),
		nInfected:  mustPrepare(`SELECT COUNT(pid) ` + preschool + ` AND state = 'I'`),
		fired:      -1,
	}
}

func (a *algorithm1) observe(day int, db *engine.Database, sim *Sim) error {
	if a.fired >= 0 {
		return nil // vaccinate once
	}
	n, err := a.nPreschool.Scalar(db)
	if err != nil {
		return err
	}
	if n == 0 { // COUNT returns an exact small integer in a float column
		return nil
	}
	infected, err := a.nInfected.Scalar(db)
	if err != nil {
		return err
	}
	if infected <= a.trigger*n {
		return nil
	}
	t, err := a.pids.Exec(db)
	if err != nil {
		return err
	}
	ids, err := PIDs(t)
	if err != nil {
		return err
	}
	if err := sim.Vaccinate(ids); err != nil {
		return err
	}
	a.fired = day
	return nil
}

// mustPrepare prepares one of the package's constant statements.
func mustPrepare(sql string) *engine.Prepared {
	p, err := engine.Prepare(sql)
	if err != nil {
		panic(err)
	}
	return p
}

// Damage computes the economic performance measure of §2.4 ("number of
// infected cases or economic damage"): a cost per person ever infected
// plus a cost per vaccine administered. Policies are compared — and
// optimized — on this scalar.
func (s *Sim) Damage(costPerCase, costPerVaccine float64) float64 {
	c := s.Counts()
	cases := c[Exposed] + c[Infectious] + c[Recovered]
	return costPerCase*float64(cases) + costPerVaccine*float64(c[Vaccinated])
}
