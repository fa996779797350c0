package indemics

import (
	"errors"
	"testing"

	"modeldata/internal/engine"
	"modeldata/internal/rng"
)

func testPopulation(t *testing.T, n int, seed uint64) *Network {
	t.Helper()
	net, err := GeneratePopulation(PopulationConfig{
		N: n, MeanDegree: 8, Rewire: 0.1,
	}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func testParams() Params {
	return Params{Beta: 0.3, LatentDays: 2, InfectiousDays: 4}
}

func TestGeneratePopulationShape(t *testing.T) {
	net := testPopulation(t, 500, 1)
	if len(net.People) != 500 {
		t.Fatalf("people = %d", len(net.People))
	}
	// Mean degree ≈ 8.
	totalDeg := 0
	for i := range net.People {
		totalDeg += net.Degree(i)
	}
	mean := float64(totalDeg) / 500
	if mean < 6 || mean > 10 {
		t.Fatalf("mean degree = %g", mean)
	}
	// Ages span the bands.
	bands := make(map[int]int)
	for _, p := range net.People {
		switch {
		case p.Age < 5:
			bands[0]++
		case p.Age < 18:
			bands[1]++
		case p.Age < 65:
			bands[2]++
		default:
			bands[3]++
		}
	}
	for b := 0; b < 4; b++ {
		if bands[b] == 0 {
			t.Fatalf("age band %d empty", b)
		}
	}
}

func TestGeneratePopulationErrors(t *testing.T) {
	if _, err := GeneratePopulation(PopulationConfig{N: 1, MeanDegree: 4}, rng.New(1)); !errors.Is(err, ErrBadParams) {
		t.Fatalf("got %v", err)
	}
	if _, err := GeneratePopulation(PopulationConfig{N: 100, MeanDegree: 4, AgeWeights: []float64{1}}, rng.New(1)); !errors.Is(err, ErrBadParams) {
		t.Fatalf("got %v", err)
	}
}

func TestNetworkEdgeOps(t *testing.T) {
	net := NewNetwork(4)
	if err := net.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.AddEdge(0, 9, 1); !errors.Is(err, ErrNoPerson) {
		t.Fatalf("got %v", err)
	}
	if net.NumEdges() != 2 || net.Degree(1) != 2 {
		t.Fatalf("edges=%d deg1=%d", net.NumEdges(), net.Degree(1))
	}
	net.RemoveEdges(1)
	if net.NumEdges() != 0 || net.Degree(0) != 0 || net.Degree(2) != 0 {
		t.Fatal("quarantine did not remove incident edges")
	}
}

func TestEpidemicSpreads(t *testing.T) {
	net := testPopulation(t, 1000, 2)
	sim, err := NewSim(net, testParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	sim.Seed(5)
	if c := sim.Counts(); c[Infectious] != 5 {
		t.Fatalf("seeded %d infectious", c[Infectious])
	}
	if err := sim.Run(60, nil); err != nil {
		t.Fatal(err)
	}
	ar := sim.AttackRate()
	if ar < 0.3 {
		t.Fatalf("attack rate = %g, epidemic did not take off", ar)
	}
	c := sim.Counts()
	total := 0
	for _, v := range c {
		total += v
	}
	if total != 1000 {
		t.Fatalf("state counts sum to %d", total)
	}
}

func TestEpidemicDeterministic(t *testing.T) {
	run := func() float64 {
		net := testPopulation(t, 300, 7)
		sim, err := NewSim(net, testParams(), 9)
		if err != nil {
			t.Fatal(err)
		}
		sim.Seed(3)
		if err := sim.Run(30, nil); err != nil {
			t.Fatal(err)
		}
		return sim.AttackRate()
	}
	if run() != run() {
		t.Fatal("simulation not deterministic for fixed seeds")
	}
}

func TestFearDampensSpread(t *testing.T) {
	attack := func(fearGrowth float64) float64 {
		net := testPopulation(t, 800, 11)
		p := testParams()
		p.FearGrowth = fearGrowth
		sim, err := NewSim(net, p, 13)
		if err != nil {
			t.Fatal(err)
		}
		sim.Seed(5)
		if err := sim.Run(60, nil); err != nil {
			t.Fatal(err)
		}
		return sim.AttackRate()
	}
	noFear := attack(0)
	fear := attack(0.3)
	if fear >= noFear {
		t.Fatalf("fear did not dampen spread: %g vs %g", fear, noFear)
	}
}

func TestParamsValidation(t *testing.T) {
	net := NewNetwork(10)
	if _, err := NewSim(net, Params{}, 1); !errors.Is(err, ErrBadParams) {
		t.Fatalf("got %v", err)
	}
}

func TestVaccinateAndQuarantine(t *testing.T) {
	net := NewNetwork(3)
	if err := net.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(net, testParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	net.People[2].State = Infectious
	if err := sim.Vaccinate([]int{0, 2}); err != nil {
		t.Fatal(err)
	}
	if net.People[0].State != Vaccinated {
		t.Fatal("susceptible not vaccinated")
	}
	if net.People[2].State != Infectious {
		t.Fatal("vaccination must not cure the infectious")
	}
	if err := sim.Vaccinate([]int{99}); !errors.Is(err, ErrNoPerson) {
		t.Fatalf("got %v", err)
	}
	if err := sim.Quarantine([]int{0}); err != nil {
		t.Fatal(err)
	}
	if net.NumEdges() != 0 {
		t.Fatal("quarantine kept edges")
	}
	if err := sim.Quarantine([]int{-1}); !errors.Is(err, ErrNoPerson) {
		t.Fatalf("got %v", err)
	}
}

func TestSnapshotTables(t *testing.T) {
	net := testPopulation(t, 50, 21)
	sim, err := NewSim(net, testParams(), 22)
	if err != nil {
		t.Fatal(err)
	}
	sim.Seed(2)
	db := sim.Database()
	person, err := db.Get("person")
	if err != nil {
		t.Fatal(err)
	}
	if person.Len() != 50 {
		t.Fatalf("person rows = %d", person.Len())
	}
	contact, err := db.Get("contact")
	if err != nil {
		t.Fatal(err)
	}
	if contact.Len() != net.NumEdges() {
		t.Fatalf("contact rows = %d, want %d", contact.Len(), net.NumEdges())
	}
	// SQL-side observation: percent infected via a query.
	n, err := engine.From(person).WhereEq("state", engine.Str("I")).Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("infected by query = %d, want 2", n)
	}
}

func TestPIDs(t *testing.T) {
	tbl := engine.MustNewTable("x", engine.Schema{{Name: "pid", Type: engine.TypeInt}})
	tbl.MustInsert(engine.Int(4))
	tbl.MustInsert(engine.Int(7))
	ids, err := PIDs(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 4 || ids[1] != 7 {
		t.Fatalf("ids = %v", ids)
	}
	bad := engine.MustNewTable("y", engine.Schema{{Name: "other", Type: engine.TypeInt}})
	if _, err := PIDs(bad); err == nil {
		t.Fatal("missing pid accepted")
	}
}

func TestVaccinatePreschoolersPolicy(t *testing.T) {
	// Algorithm 1 end-to-end: with the policy active, preschoolers
	// should end up largely vaccinated and the final attack rate lower
	// than without intervention.
	runWith := func(policy bool) (float64, int, *Sim) {
		net := testPopulation(t, 1500, 31)
		sim, err := NewSim(net, testParams(), 33)
		if err != nil {
			t.Fatal(err)
		}
		sim.Seed(10)
		var obs Observer
		fired := -1
		var firedPtr *int = &fired
		if policy {
			obs, firedPtr = VaccinatePreschoolersPolicy(0.01)
		}
		if err := sim.Run(100, obs); err != nil {
			t.Fatal(err)
		}
		return sim.AttackRate(), *firedPtr, sim
	}
	arBase, _, _ := runWith(false)
	arPolicy, fired, sim := runWith(true)
	if fired < 0 {
		t.Fatal("intervention never fired")
	}
	if arPolicy >= arBase {
		t.Fatalf("intervention did not reduce attack rate: %g vs %g", arPolicy, arBase)
	}
	// Most preschoolers should be vaccinated (those still S/E at
	// trigger time).
	vax := 0
	preschool := 0
	for _, p := range sim.Net.People {
		if p.Age <= 4 {
			preschool++
			if p.State == Vaccinated {
				vax++
			}
		}
	}
	if preschool == 0 || float64(vax)/float64(preschool) < 0.5 {
		t.Fatalf("vaccinated %d of %d preschoolers", vax, preschool)
	}
}

func TestObserverErrorPropagates(t *testing.T) {
	net := testPopulation(t, 100, 41)
	sim, err := NewSim(net, testParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("obs-fail")
	err = sim.Run(5, func(int, *engine.Database, *Sim) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v", err)
	}
}

func TestAlgorithm1MatchesDirectCount(t *testing.T) {
	// The policy's prepared counts, and the people it vaccinates, must
	// agree each day with a tally over the simulation's own people made
	// without the engine.
	net := testPopulation(t, 1200, 51)
	sim, err := NewSim(net, testParams(), 53)
	if err != nil {
		t.Fatal(err)
	}
	sim.Seed(8)
	a := newAlgorithm1(0.01)
	days, sawInfected := 0, false
	err = sim.Run(80, func(day int, db *engine.Database, s *Sim) error {
		days++
		nPre, nInf := 0, 0
		want := map[int]bool{} // the preschoolers a firing vaccinates
		for i, p := range s.Net.People {
			if p.Age < 0 || p.Age > 4 {
				continue
			}
			nPre++
			switch p.State {
			case Infectious:
				nInf++
			case Susceptible, Exposed:
				want[i] = true
			}
		}
		sawInfected = sawInfected || nInf > 0
		gotPre, err := a.nPreschool.Scalar(db)
		if err != nil {
			return err
		}
		gotInf, err := a.nInfected.Scalar(db)
		if err != nil {
			return err
		}
		if gotPre != float64(nPre) || gotInf != float64(nInf) {
			t.Fatalf("day %d: prepared counts %g preschool, %g infected; direct %d, %d", day, gotPre, gotInf, nPre, nInf)
		}
		before := a.fired
		if err := a.observe(day, db, s); err != nil {
			return err
		}
		if before >= 0 || a.fired != day {
			return nil
		}
		if float64(nInf) <= 0.01*float64(nPre) {
			t.Fatalf("day %d: fired with %d of %d preschoolers infectious", day, nInf, nPre)
		}
		for i, p := range s.Net.People {
			if (p.State == Vaccinated) != want[i] {
				t.Fatalf("day %d: person %d (age %d) vaccinated = %v, want %v", day, i, p.Age, p.State == Vaccinated, want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if days != 80 || !sawInfected || a.fired < 0 {
		t.Fatalf("observed %d days, infected preschooler seen %v, fired on day %d", days, sawInfected, a.fired)
	}
}
