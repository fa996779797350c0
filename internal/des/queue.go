package des

import (
	"fmt"

	"modeldata/internal/rng"
)

// This file implements the §2.3 queueing model M2: given a sequence of
// customer arrival times produced by a demand model M1, a single-server
// FIFO queue serves them with random service times, and the model
// output Y2 is the average waiting time of the first K customers.

// ErrNoArrivals is returned when the queue model is run without input.
var ErrNoArrivals = fmt.Errorf("des: queue needs at least one arrival")

// SimulateQueue runs a single-server FIFO queue over the given arrival
// times, drawing each service time from service, and returns the
// average time the first k customers (or all customers if fewer
// arrive) spent waiting for service, excluding service itself. Arrival
// times must be non-decreasing.
func SimulateQueue(arrivals []float64, service rng.Dist, k int, r *rng.Stream) (float64, error) {
	if len(arrivals) == 0 {
		return 0, ErrNoArrivals
	}
	if k <= 0 || k > len(arrivals) {
		k = len(arrivals)
	}
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] < arrivals[i-1] {
			return 0, fmt.Errorf("des: arrivals not sorted at %d", i)
		}
	}
	sim := NewSimulator()
	var (
		serverBusy bool
		waiting    []float64 // arrival times of queued customers
		totalWait  float64
		served     int
	)
	var startService func(s *Simulator, arrivalTime float64)
	startService = func(s *Simulator, arrivalTime float64) {
		serverBusy = true
		totalWait += s.Now() - arrivalTime
		served++
		if served >= k {
			// Measurement complete once the K-th customer begins
			// service (its wait is known).
			s.Stop()
			return
		}
		dur := service.Sample(r)
		if dur < 0 {
			dur = 0
		}
		if err := s.ScheduleAfter(dur, func(s *Simulator) {
			serverBusy = false
			if len(waiting) > 0 {
				next := waiting[0]
				waiting = waiting[1:]
				startService(s, next)
			}
		}); err != nil {
			panic(err) // delay ≥ 0 by construction
		}
	}
	for _, at := range arrivals {
		at := at
		if err := sim.Schedule(at, func(s *Simulator) {
			if serverBusy {
				waiting = append(waiting, at)
				return
			}
			startService(s, at)
		}); err != nil {
			return 0, err
		}
	}
	if err := sim.Run(0); err != nil {
		return 0, err
	}
	if served == 0 {
		return 0, ErrNoArrivals
	}
	return totalWait / float64(served), nil
}

// PoissonArrivals draws n exponential inter-arrival gaps at the given
// rate and returns the cumulative arrival times — the §2.3 demand
// model M1.
func PoissonArrivals(n int, rate float64, r *rng.Stream) []float64 {
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += r.Exponential(rate)
		out[i] = t
	}
	return out
}
