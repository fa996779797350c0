package des

import (
	"errors"
	"math"
	"testing"

	"modeldata/internal/rng"
	"modeldata/internal/stats"
)

func TestEventOrdering(t *testing.T) {
	sim := NewSimulator()
	var order []int
	sched := func(at float64, id int) {
		if err := sim.Schedule(at, func(*Simulator) { order = append(order, id) }); err != nil {
			t.Fatal(err)
		}
	}
	sched(3, 3)
	sched(1, 1)
	sched(2, 2)
	sched(1, 10) // same time as id 1: insertion order breaks the tie
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 10, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestScheduleInPast(t *testing.T) {
	sim := NewSimulator()
	if err := sim.Schedule(5, func(s *Simulator) {
		if err := s.Schedule(1, func(*Simulator) {}); !errors.Is(err, ErrPastEvent) {
			t.Errorf("got %v, want ErrPastEvent", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestHorizonStopsClock(t *testing.T) {
	sim := NewSimulator()
	fired := false
	if err := sim.Schedule(100, func(*Simulator) { fired = true }); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event past the horizon fired")
	}
	if sim.Now() != 10 {
		t.Fatalf("clock = %g, want 10", sim.Now())
	}
}

func TestStopAndRestart(t *testing.T) {
	sim := NewSimulator()
	if err := sim.Schedule(1, func(s *Simulator) { s.Stop() }); err != nil {
		t.Fatal(err)
	}
	if err := sim.Schedule(2, func(*Simulator) { t.Fatal("ran past Stop") }); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); !errors.Is(err, ErrStopped) {
		t.Fatalf("got %v, want ErrStopped", err)
	}
}

func TestCascadingEvents(t *testing.T) {
	sim := NewSimulator()
	count := 0
	var tick Handler
	tick = func(s *Simulator) {
		count++
		if count < 10 {
			if err := s.ScheduleAfter(1, tick); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sim.Schedule(0, tick); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != 10 || sim.Now() != 9 {
		t.Fatalf("count=%d now=%g", count, sim.Now())
	}
}

func TestQueueValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := SimulateQueue(nil, rng.ExponentialDist{Rate: 1}, 5, r); !errors.Is(err, ErrNoArrivals) {
		t.Fatalf("got %v", err)
	}
	if _, err := SimulateQueue([]float64{2, 1}, rng.ExponentialDist{Rate: 1}, 5, r); err == nil {
		t.Fatal("unsorted arrivals accepted")
	}
}

func TestQueueNoWaitWhenIdle(t *testing.T) {
	// Arrivals far apart with short services: nobody waits.
	r := rng.New(2)
	arrivals := []float64{0, 100, 200, 300}
	res, err := SimulateQueue(arrivals, rng.UniformDist{Lo: 0.1, Hi: 0.2}, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgWait != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestQueueBackToBackWaits(t *testing.T) {
	// Two simultaneous arrivals, deterministic 1-unit service: the
	// second waits exactly 1.
	r := rng.New(3)
	res, err := SimulateQueue([]float64{0, 0}, rng.UniformDist{Lo: 1, Hi: 1 + 1e-12}, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.AvgWait-0.5) > 1e-9 {
		t.Fatalf("avg wait = %g, want 0.5", res.AvgWait)
	}
}

func TestMM1MeanWaitMatchesTheory(t *testing.T) {
	// M/M/1 queueing theory: Wq = ρ/(μ−λ) with λ=0.5, μ=1 ⇒ Wq = 1.
	const lambda, mu = 0.5, 1.0
	parent := rng.New(7)
	var waits []float64
	for rep := 0; rep < 200; rep++ {
		r := parent.Split()
		arrivals := PoissonArrivals(3000, lambda, r)
		// Warm-up: measure all 3000 and keep the run mean (steady-state
		// bias is small over 3000 customers).
		res, err := SimulateQueue(arrivals, rng.ExponentialDist{Rate: mu}, 3000, r)
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, res.AvgWait)
	}
	mean := stats.Mean(waits)
	want := (lambda / mu) / (mu - lambda)
	if math.Abs(mean-want)/want > 0.1 {
		t.Fatalf("M/M/1 mean wait = %g, want ≈ %g", mean, want)
	}
}

func TestPoissonArrivalsShape(t *testing.T) {
	r := rng.New(9)
	a := PoissonArrivals(1000, 2, r)
	if len(a) != 1000 {
		t.Fatal("length")
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatal("arrivals not increasing")
		}
	}
	// Mean inter-arrival ≈ 1/rate.
	if gap := a[len(a)-1] / 1000; math.Abs(gap-0.5) > 0.05 {
		t.Fatalf("mean gap = %g, want ≈ 0.5", gap)
	}
}

func TestQueueDeterministic(t *testing.T) {
	run := func() float64 {
		r := rng.New(11)
		arrivals := PoissonArrivals(200, 1, r)
		res, err := SimulateQueue(arrivals, rng.ExponentialDist{Rate: 1.2}, 100, r)
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgWait
	}
	if run() != run() {
		t.Fatal("queue not deterministic")
	}
}
