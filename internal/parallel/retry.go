package parallel

// Task retry with exponential backoff — the half of the fault-tolerance
// layer that lives inside each worker. A RetryPolicy turns one logical
// task into a bounded sequence of attempts: a failed attempt (error or
// recovered panic, injected or genuine) is re-run after an
// exponentially growing pause, on the same worker, against the same
// inputs. Determinism under retry is the caller's half of the contract:
// an attempt must be re-runnable from identical starting state
// (ForStreams hands every attempt a fresh copy of the iteration's rng
// substream; MapReduce buffers emissions per attempt and discards
// partial output).

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// ErrTaskFailed is wrapped by task failures that exhausted their retry
// budget.
var ErrTaskFailed = errors.New("parallel: task failed")

// RetryPolicy configures per-task fault tolerance.
type RetryPolicy struct {
	// MaxRetries is the number of re-runs allowed after a task's first
	// failed attempt; 0 fails the job on the first failure.
	MaxRetries int
	// Backoff is the pause before the first retry; it doubles on each
	// subsequent retry of the same task. Zero means DefaultBackoff.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth. Zero means
	// DefaultMaxBackoff.
	MaxBackoff time.Duration
	// SpeculativeFactor enables speculative execution in runtimes that
	// support it (MapReduce): when a task's elapsed time exceeds
	// SpeculativeFactor × the median completion time of finished tasks
	// in the same stage, a backup attempt is launched and the first
	// result wins. Zero disables speculation.
	SpeculativeFactor float64
}

// Backoff defaults.
const (
	DefaultBackoff    = 500 * time.Microsecond
	DefaultMaxBackoff = 100 * time.Millisecond
)

// BackoffFor returns the pause before retrying a task that has failed
// `failures` times (failures ≥ 1): Backoff·2^(failures−1), capped at
// MaxBackoff.
func (p RetryPolicy) BackoffFor(failures int) time.Duration {
	base := p.Backoff
	if base <= 0 {
		base = DefaultBackoff
	}
	ceil := p.MaxBackoff
	if ceil <= 0 {
		ceil = DefaultMaxBackoff
	}
	d := base
	for i := 1; i < failures && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	return d
}

// WithRetryPolicy returns a context whose task runtimes (parallel loops
// and MapReduce stages) apply policy p to every task.
func WithRetryPolicy(ctx context.Context, p RetryPolicy) context.Context {
	return context.WithValue(ctx, retryKey, p)
}

// RetryPolicyFrom returns the retry policy installed on ctx and whether
// one was installed.
func RetryPolicyFrom(ctx context.Context) (RetryPolicy, bool) {
	p, ok := ctx.Value(retryKey).(RetryPolicy)
	return p, ok
}

// sleepCtx pauses for d or until ctx is canceled, returning ctx.Err()
// in the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// attemptOnce runs one guarded task attempt: the injector fires first
// (it may sleep or panic), then fn; any panic is converted into an
// error so the retry loop — not the process — decides its fate.
func attemptOnce(stage string, index, attempt int, inj FaultInjector, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("%s[%d] attempt %d panicked: %w", stage, index, attempt, e)
				return
			}
			err = fmt.Errorf("%s[%d] attempt %d panicked: %v", stage, index, attempt, r)
		}
	}()
	if inj != nil {
		inj.Inject(TaskInfo{Stage: stage, Index: index, Attempt: attempt})
	}
	return fn()
}

// runTaskAttempts executes one task under the retry policy: attempts
// are made serially with exponential backoff between failures until one
// succeeds, the retry budget is exhausted, or ctx is canceled. Attempt
// and retry counts and backoff time are credited to stats. fn must be
// re-runnable: each attempt must start from identical task state.
func runTaskAttempts(ctx context.Context, stage string, index int, p RetryPolicy, inj FaultInjector, stats *Stats, fn func() error) error {
	failures := 0
	for attempt := 1; ; attempt++ {
		stats.AddTaskAttempts(1)
		err := attemptOnce(stage, index, attempt, inj, fn)
		if err == nil {
			return nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		failures++
		if failures > p.MaxRetries {
			return fmt.Errorf("%w: %s[%d] after %d attempt(s): %w", ErrTaskFailed, stage, index, attempt, err)
		}
		d := p.BackoffFor(failures)
		stats.AddRetries(1)
		stats.AddBackoff(d)
		if err := sleepCtx(ctx, d); err != nil {
			return err
		}
	}
}
