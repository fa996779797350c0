package parallel

// Fault injection for the task runtime. A FaultInjector is the
// simulator-substitution hook of the fault-tolerance layer: instead of
// waiting for real machine failures, tests and chaos modes install an
// injector that panics or stalls chosen task attempts, and the runtime
// must absorb the damage through retries without changing a single
// output bit.
//
// Injector decisions are derived from (stage, task index, attempt
// number) and a seed — never from wall-clock time or scheduling order —
// so a chaos run is itself reproducible: the same injector against the
// same job fails the same attempts regardless of worker count.

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// ErrInjectedFault is the sentinel wrapped by every injector-caused
// failure, so tests can distinguish injected crashes from genuine bugs
// with errors.Is.
var ErrInjectedFault = errors.New("parallel: injected fault")

// TaskInfo identifies one task attempt for fault-injection decisions.
type TaskInfo struct {
	// Stage names the runtime stage ("map", "reduce", "parallel", …).
	Stage string
	// Index is the task's index within its stage (split number,
	// iteration number, partition number).
	Index int
	// Attempt is the 1-based attempt number for this task, counting
	// retries.
	Attempt int
}

func (ti TaskInfo) String() string {
	return fmt.Sprintf("%s[%d] attempt %d", ti.Stage, ti.Index, ti.Attempt)
}

// FaultInjector decides the fate of a task attempt. Inject is called at
// the start of the attempt and may return normally (healthy), sleep
// (injected straggler latency), or panic with an ErrInjectedFault-
// wrapping error (injected crash). Implementations must be safe for
// concurrent use and deterministic in the TaskInfo alone.
type FaultInjector interface {
	Inject(ti TaskInfo)
}

// injectedFault is the panic payload raised by the stock injectors; it
// unwraps to ErrInjectedFault.
type injectedFault struct{ ti TaskInfo }

func (f injectedFault) Error() string { return fmt.Sprintf("injected crash in %s", f.ti) }
func (f injectedFault) Unwrap() error { return ErrInjectedFault }

// faultHash mixes a TaskInfo with a seed into 64 uniform bits
// (SplitMix64-style finalizer over an FNV-ish accumulation), the basis
// for the probabilistic injectors' scheduling-independent decisions.
func faultHash(seed uint64, ti TaskInfo) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(ti.Stage) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h ^= uint64(ti.Index) * 0xbf58476d1ce4e5b9
	h ^= uint64(ti.Attempt) * 0x94d049bb133111eb
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// faultUnit maps a TaskInfo to a uniform variate in [0, 1).
func faultUnit(seed uint64, ti TaskInfo) float64 {
	return float64(faultHash(seed, ti)>>11) * (1.0 / (1 << 53))
}

// PanicInjector crashes each attempt independently with probability
// Prob, decided by hashing the attempt identity with Seed. Because the
// hash varies with the attempt number, a crashed task's retry rolls a
// fresh coin and eventually succeeds (with enough retries).
type PanicInjector struct {
	Prob float64
	Seed uint64
}

// Inject panics with an injected fault when the attempt's hash falls
// below Prob.
func (p PanicInjector) Inject(ti TaskInfo) {
	if faultUnit(p.Seed, ti) < p.Prob {
		panic(injectedFault{ti})
	}
}

// LatencyInjector stalls each attempt independently with probability
// Prob for Delay, manufacturing stragglers: a chaos run must give the
// failure-free output however its attempts interleave. It never fails
// an attempt.
type LatencyInjector struct {
	Prob  float64
	Delay time.Duration
	Seed  uint64
}

// Inject sleeps for Delay when the attempt's hash falls below Prob.
func (l LatencyInjector) Inject(ti TaskInfo) {
	if faultUnit(l.Seed, ti) < l.Prob {
		time.Sleep(l.Delay)
	}
}

// CrashAttempts deterministically crashes the first Times attempts of
// one task — the classic "task dies N times then succeeds" Hadoop test
// fixture. Stage "" matches every stage; Index -1 matches every task.
type CrashAttempts struct {
	Stage string
	Index int
	Times int
}

// Inject panics while the attempt number is at most Times and the
// stage/index selectors match.
func (c CrashAttempts) Inject(ti TaskInfo) {
	if c.Stage != "" && c.Stage != ti.Stage {
		return
	}
	if c.Index >= 0 && c.Index != ti.Index {
		return
	}
	if ti.Attempt <= c.Times {
		panic(injectedFault{ti})
	}
}

// Chain composes injectors; each is consulted in order.
type Chain []FaultInjector

// Inject invokes every injector in order.
func (cs Chain) Inject(ti TaskInfo) {
	for _, c := range cs {
		c.Inject(ti)
	}
}

// WithFaultInjector returns a context whose task runtimes (parallel
// loops and MapReduce stages) pass every task attempt through fi. A nil
// fi returns ctx unchanged.
func WithFaultInjector(ctx context.Context, fi FaultInjector) context.Context {
	if fi == nil {
		return ctx
	}
	return context.WithValue(ctx, injectorKey, fi)
}

// InjectorFrom returns the fault injector installed on ctx, or nil.
func InjectorFrom(ctx context.Context) FaultInjector {
	fi, _ := ctx.Value(injectorKey).(FaultInjector)
	return fi
}
