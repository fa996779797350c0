// Package des is a small discrete-event simulation kernel — the
// substrate for the §2.3 motivating example (a demand model M1 feeding
// a queueing model M2 whose output is the average waiting time of the
// first 100 customers) and, more broadly, the DEVS-style event-driven
// modeling the paper lists among composite-simulation frameworks.
//
// The kernel is a classic future-event-list design: events are
// scheduled at simulated times and executed in (time, sequence) order;
// handlers may schedule further events. Determinism is guaranteed by
// breaking time ties on insertion sequence.
package des

import (
	"container/heap"
	"errors"
	"fmt"
)

// Common errors.
var (
	ErrPastEvent = errors.New("des: cannot schedule an event in the past")
	ErrStopped   = errors.New("des: simulator already stopped")
)

// Handler executes one event at its scheduled time.
type Handler func(sim *Simulator)

// event is one future-event-list entry.
type event struct {
	time float64
	seq  uint64
	fn   Handler
}

// eventQueue orders events by (time, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time { // event order must be an exact total order; timestamp ties break by seq, never by tolerance
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Simulator owns the clock and the future event list.
type Simulator struct {
	now     float64
	seq     uint64
	queue   eventQueue
	stopped bool
	// Executed counts handled events.
	Executed int
}

// NewSimulator returns a simulator at time 0.
func NewSimulator() *Simulator { return &Simulator{} }

// Now returns the current simulated time.
func (s *Simulator) Now() float64 { return s.now }

// Schedule books fn at absolute simulated time t ≥ Now.
func (s *Simulator) Schedule(t float64, fn Handler) error {
	if t < s.now {
		return fmt.Errorf("%w: t=%g < now=%g", ErrPastEvent, t, s.now)
	}
	s.seq++
	heap.Push(&s.queue, &event{time: t, seq: s.seq, fn: fn})
	return nil
}

// ScheduleAfter books fn delay time units from now.
func (s *Simulator) ScheduleAfter(delay float64, fn Handler) error {
	return s.Schedule(s.now+delay, fn)
}

// Stop ends the run after the current event.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events until the event list drains, Stop is called, or
// the clock would pass horizon (horizon ≤ 0 means no horizon). The
// clock never exceeds the horizon.
func (s *Simulator) Run(horizon float64) error {
	if s.stopped {
		return ErrStopped
	}
	for s.queue.Len() > 0 {
		e := heap.Pop(&s.queue).(*event)
		if horizon > 0 && e.time > horizon {
			s.now = horizon
			return nil
		}
		s.now = e.time
		e.fn(s)
		s.Executed++
		if s.stopped {
			return nil
		}
	}
	return nil
}
