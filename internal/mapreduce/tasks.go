package mapreduce

// The fault-tolerant task scheduler: the piece of Hadoop that the rest
// of this runtime stands on. Each map or reduce task is executed as a
// sequence of attempts; a crashed attempt (panic, injected fault, or
// error) is retried with exponential backoff up to the policy's budget,
// and a straggling task — one running longer than SpeculativeFactor ×
// the median completion time of its stage — gets a speculative backup
// attempt, with the first finisher committing its result.
//
// Determinism under faults rests on two properties:
//
//  1. Attempts are hermetic. A task function receives only its task
//     index and buffers all output locally; a failed attempt's partial
//     output is discarded wholesale, and every attempt of a task
//     computes the identical result (callers that use randomness clone
//     the task's pre-split rng substream per attempt).
//  2. Commits are guarded per slot. The scheduler's mutex makes "first
//     successful attempt wins" atomic: exactly one attempt ever writes
//     results[i], so racing primary and backup attempts cannot
//     interleave, duplicate, or tear a commit.
//
// Together these guarantee that any fault schedule that lets every task
// eventually succeed yields output bit-identical to the failure-free
// run at any worker count.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"modeldata/internal/obs"
	"modeldata/internal/parallel"
)

// minSpecCompleted is the number of completed tasks required before the
// median completion time is considered meaningful for straggler
// detection.
const minSpecCompleted = 3

// minSpecAge floors the straggler threshold so microsecond-scale tasks
// do not trigger storms of pointless backups.
const minSpecAge = 50 * time.Microsecond

// taskStats are the fault-tolerance counters of one stage.
type taskStats struct {
	attempts     int64
	retries      int64
	specLaunches int64
	specWins     int64
	backoff      time.Duration
}

// attemptRef identifies one scheduled execution of a task.
type attemptRef struct {
	i    int  // task index
	n    int  // 1-based attempt number (retries and backups increment)
	spec bool // launched as a speculative backup
}

// taskState tracks one task's attempt lifecycle under the scheduler
// mutex.
type taskState struct {
	done     bool
	failures int       // failed attempts so far
	launches int       // attempts handed out so far (numbers attempts)
	running  int       // attempts executing right now
	backup   bool      // a speculative backup has been launched
	started  time.Time // start of the oldest currently-running attempt
}

// scheduler runs one stage's tasks with retries and speculation.
type scheduler[T any] struct {
	stage  string
	pol    parallel.RetryPolicy
	inj    parallel.FaultInjector
	run    func(i int) (T, error)
	pstats *parallel.Stats       // context-level counters (nil-safe)
	prog   func(done, total int) // context progress hook (may be nil)
	traced bool                  // a tracer rides the context: emit per-attempt spans

	mu      sync.Mutex
	tasks   []taskState
	results []T
	// bounded by one committed duration per task: commitLocked appends
	// exactly once per slot, so the slice never outgrows len(tasks)
	durations []time.Duration // guarded by mu
	remaining int
	ts        taskStats
	fatal     error

	queue  chan attemptRef
	doneCh chan struct{}
	cancel context.CancelFunc
}

// runTasks executes n independent tasks on a bounded worker pool under
// the retry policy and fault injector, returning every task's committed
// result in index order. The first task to exhaust its retry budget
// (or a context cancellation) aborts the stage.
func runTasks[T any](ctx context.Context, stage string, n, workers int, pol parallel.RetryPolicy, inj parallel.FaultInjector, run func(i int) (T, error)) ([]T, taskStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, taskStats{}, err
	}
	if workers > n {
		workers = n
	}
	ctx, stageSpan := obs.Start(ctx, "mapreduce."+stage)
	stageSpan.SetInt("tasks", int64(n))
	stageSpan.SetInt("workers", int64(workers))
	defer stageSpan.End()
	schedCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	s := &scheduler[T]{
		stage:     stage,
		pol:       pol,
		inj:       inj,
		run:       run,
		pstats:    parallel.StatsFrom(ctx),
		prog:      parallel.ProgressFrom(ctx),
		traced:    obs.Enabled(ctx),
		tasks:     make([]taskState, n),
		results:   make([]T, n),
		remaining: n,
		// Lifetime bound on enqueues per task: 1 first try + MaxRetries
		// retries + 1 speculative backup, so sends never block.
		queue:  make(chan attemptRef, n*(pol.MaxRetries+2)),
		doneCh: make(chan struct{}),
		cancel: cancel,
	}
	for i := 0; i < n; i++ {
		s.tasks[i].launches = 1
		s.queue <- attemptRef{i: i, n: 1}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.worker(schedCtx)
		}()
	}
	wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fatal != nil {
		return nil, s.ts, s.fatal
	}
	if err := ctx.Err(); err != nil {
		return nil, s.ts, err
	}
	return s.results, s.ts, nil
}

// worker pulls attempts until the stage completes, fails, or is
// canceled. When speculation is enabled, idle workers also wake on a
// ticker to scan for stragglers.
func (s *scheduler[T]) worker(ctx context.Context) {
	var tickC <-chan time.Time
	if s.pol.SpeculativeFactor > 0 {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		tickC = tick.C
	}
	for {
		select {
		case a := <-s.queue:
			s.execute(ctx, a)
		case <-s.doneCh:
			return
		case <-ctx.Done():
			return
		case <-tickC:
			s.mu.Lock()
			s.checkStragglersLocked(obs.Wall.Now())
			s.mu.Unlock()
		}
	}
}

// execute runs one attempt end to end: guarded user code, then either a
// per-slot first-writer-wins commit or the retry/fatal path.
func (s *scheduler[T]) execute(ctx context.Context, a attemptRef) {
	s.mu.Lock()
	st := &s.tasks[a.i]
	if st.done || s.fatal != nil {
		s.mu.Unlock()
		return
	}
	began := obs.Wall.Now()
	st.running++
	if st.running == 1 {
		st.started = began
	}
	s.ts.attempts++
	s.mu.Unlock()
	s.pstats.AddTaskAttempts(1)

	var span *obs.Span
	if s.traced {
		_, span = obs.Start(ctx, s.stage+".task")
		span.SetInt("index", int64(a.i))
		span.SetInt("attempt", int64(a.n))
		if a.spec {
			span.SetAttr("speculative", "true")
		}
	}
	res, err := s.attempt(a)
	if span != nil {
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
	}

	s.mu.Lock()
	st.running--
	if st.running == 0 {
		st.started = time.Time{}
	}
	if err == nil {
		s.commitLocked(a, res, obs.Wall.Now().Sub(began))
		return
	}
	s.failLocked(ctx, a, err)
}

// attempt runs the fault injector and the task body, converting panics
// into ErrWorkerPanic-wrapped errors.
func (s *scheduler[T]) attempt(a attemptRef) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("%w: %s[%d] attempt %d: %w", ErrWorkerPanic, s.stage, a.i, a.n, e)
				return
			}
			err = fmt.Errorf("%w: %s[%d] attempt %d: %v", ErrWorkerPanic, s.stage, a.i, a.n, r)
		}
	}()
	if s.inj != nil {
		s.inj.Inject(parallel.TaskInfo{Stage: s.stage, Index: a.i, Attempt: a.n})
	}
	return s.run(a.i)
}

// commitLocked installs the first successful result for a task and
// releases the scheduler lock. A task may finish twice when a primary
// and its speculative backup both succeed — the done re-check under the
// lock is the first-writer-wins guard: exactly one attempt ever writes
// the slot or decrements the remaining count; the loser is discarded
// whole.
func (s *scheduler[T]) commitLocked(a attemptRef, res T, dur time.Duration) {
	st := &s.tasks[a.i]
	if st.done {
		s.mu.Unlock()
		return
	}
	st.done = true
	s.results[a.i] = res
	s.durations = append(s.durations, dur)
	s.remaining--
	if a.spec {
		s.ts.specWins++
		s.pstats.AddSpeculativeWins(1)
	}
	completed := len(s.tasks) - s.remaining
	if s.remaining == 0 {
		close(s.doneCh)
	} else {
		s.checkStragglersLocked(obs.Wall.Now())
	}
	s.mu.Unlock()
	s.pstats.AddIterations(1)
	if s.prog != nil {
		s.prog(completed, len(s.tasks))
	}
}

// failLocked handles a failed attempt and releases the scheduler lock:
// context errors and exhausted retry budgets are fatal; anything else
// schedules a retry after exponential backoff.
func (s *scheduler[T]) failLocked(ctx context.Context, a attemptRef, err error) {
	st := &s.tasks[a.i]
	if st.done {
		// A concurrent attempt already committed; this failure is moot.
		s.mu.Unlock()
		return
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		s.fatalLocked(ctxErr)
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.fatalLocked(err)
		return
	}
	st.failures++
	if st.failures > s.pol.MaxRetries {
		if s.pol.MaxRetries > 0 {
			err = fmt.Errorf("%s[%d] failed after %d attempt(s): %w", s.stage, a.i, st.failures, err)
		}
		s.fatalLocked(err)
		return
	}
	d := s.pol.BackoffFor(st.failures)
	s.ts.retries++
	s.ts.backoff += d
	s.mu.Unlock()
	s.pstats.AddRetries(1)
	s.pstats.AddBackoff(d)

	// Back off outside the lock, then requeue unless the task resolved
	// (or the stage died) while we slept.
	timer := time.NewTimer(d)
	select {
	case <-timer.C:
	case <-ctx.Done():
		timer.Stop()
		return
	case <-s.doneCh:
		timer.Stop()
		return
	}
	s.mu.Lock()
	if st.done || s.fatal != nil {
		s.mu.Unlock()
		return
	}
	st.launches++
	retry := attemptRef{i: a.i, n: st.launches, spec: a.spec}
	s.mu.Unlock()
	select {
	case s.queue <- retry:
	default: // lifetime bound makes this unreachable; never block
	}
}

// fatalLocked latches the stage's first fatal error, cancels the
// scheduler, and releases the lock.
func (s *scheduler[T]) fatalLocked(err error) {
	if s.fatal == nil {
		s.fatal = err
	}
	s.mu.Unlock()
	s.cancel()
}

// checkStragglersLocked launches speculative backups for running tasks
// whose elapsed time exceeds SpeculativeFactor × the median completion
// time. At most one backup is ever launched per task.
func (s *scheduler[T]) checkStragglersLocked(now time.Time) {
	if s.pol.SpeculativeFactor <= 0 || len(s.durations) < minSpecCompleted || s.remaining == 0 {
		return
	}
	med := medianDuration(s.durations)
	thr := time.Duration(s.pol.SpeculativeFactor * float64(med))
	if thr < minSpecAge {
		thr = minSpecAge
	}
	for i := range s.tasks {
		st := &s.tasks[i]
		if st.done || st.backup || st.running == 0 || st.started.IsZero() {
			continue
		}
		if now.Sub(st.started) <= thr {
			continue
		}
		st.backup = true
		st.launches++
		s.ts.specLaunches++
		s.pstats.AddSpeculativeLaunches(1)
		select {
		case s.queue <- attemptRef{i: i, n: st.launches, spec: true}:
		default:
			st.backup = false // queue full (should not happen): retract
			st.launches--
			s.ts.specLaunches--
			s.pstats.AddSpeculativeLaunches(-1)
		}
	}
}

// medianDuration returns the median of ds without mutating it.
func medianDuration(ds []time.Duration) time.Duration {
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}
