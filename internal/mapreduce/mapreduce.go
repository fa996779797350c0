// Package mapreduce is an in-process MapReduce runtime: parallel
// mappers over input splits, a partitioned shuffle with byte
// accounting, and parallel reducers. It stands in for the Hadoop
// clusters used by SimSQL and Splash in the paper; the experiments that
// compare algorithms "on MapReduce" (time alignment, DSGD spline
// solving, §2.2) use the shuffle-byte counters of this package as the
// scale-free proxy for cluster communication cost.
//
// Like the Hadoop substrate it models, the runtime is fault-tolerant at
// task granularity: with a retry policy installed (Config or
// parallel.WithRetryPolicy), a crashed map or reduce task is re-run
// with exponential backoff instead of failing the job, and straggling
// tasks are speculatively re-executed with first-result-wins commits.
// Output is bit-identical to a failure-free run under any fault
// schedule that lets every task eventually succeed — see tasks.go for
// the argument.
package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"modeldata/internal/obs"
	"modeldata/internal/parallel"
)

// ErrNoInput is returned when a job is run with no input splits.
var ErrNoInput = errors.New("mapreduce: no input splits")

// ErrWorkerPanic is returned when a mapper or reducer panics; the
// panic value is attached. Like a real cluster framework, a task crash
// fails the job only after the retry budget (Config.MaxRetries or the
// context retry policy; zero by default) is exhausted.
var ErrWorkerPanic = errors.New("mapreduce: worker panicked")

// Pair is a keyed intermediate or output record.
type Pair struct {
	Key   string
	Value any
}

// Mapper processes one input split, emitting intermediate pairs.
type Mapper func(split any, emit func(Pair)) error

// Reducer processes all values that share a key, emitting output pairs.
type Reducer func(key string, values []any, emit func(Pair)) error

// Config controls job parallelism, shuffle accounting, and fault
// tolerance.
type Config struct {
	// Mappers and Reducers bound worker parallelism; zero means
	// GOMAXPROCS.
	Mappers, Reducers int
	// SizeOf estimates the serialized size of a shuffled value, for the
	// ShuffleBytes statistic. If nil, DefaultSizeOf is used.
	SizeOf func(v any) int
	// MaxRetries is the per-task retry budget: a map or reduce task may
	// fail this many times and still be re-run before the job fails.
	// Together with Backoff and SpeculativeFactor it overrides any
	// context retry policy (parallel.WithRetryPolicy) when set.
	MaxRetries int
	// Backoff is the pause before a task's first retry, doubling per
	// subsequent retry; zero means parallel.DefaultBackoff.
	Backoff time.Duration
	// SpeculativeFactor enables straggler mitigation: a task running
	// longer than SpeculativeFactor × the stage's median task time gets
	// one backup attempt, first result wins. Zero disables.
	SpeculativeFactor float64
	// Injector, if non-nil, passes every task attempt through a fault
	// injector (chaos testing); it overrides any context injector
	// (parallel.WithFaultInjector).
	Injector parallel.FaultInjector
}

// faultSetup resolves the effective retry policy and injector: Config
// fields when any are set, else whatever the context carries.
func (cfg Config) faultSetup(ctx context.Context) (parallel.RetryPolicy, parallel.FaultInjector) {
	pol, _ := parallel.RetryPolicyFrom(ctx)
	if cfg.MaxRetries > 0 || cfg.Backoff > 0 || cfg.SpeculativeFactor > 0 {
		pol = parallel.RetryPolicy{
			MaxRetries:        cfg.MaxRetries,
			Backoff:           cfg.Backoff,
			SpeculativeFactor: cfg.SpeculativeFactor,
		}
	}
	inj := cfg.Injector
	if inj == nil {
		inj = parallel.InjectorFrom(ctx)
	}
	return pol, inj
}

// Stats reports what a job did.
type Stats struct {
	InputSplits  int
	MapOutput    int   // intermediate pairs emitted by mappers
	ShuffleBytes int64 // estimated bytes moved through the shuffle
	ReduceGroups int   // distinct keys reduced
	Output       int   // output pairs emitted by reducers

	// Fault-tolerance counters.
	TaskAttempts        int64         // attempts launched across map and reduce tasks
	Retries             int64         // failed attempts that were re-run
	SpeculativeLaunches int64         // backup attempts launched against stragglers
	SpeculativeWins     int64         // tasks committed by a backup attempt
	BackoffTime         time.Duration // cumulative retry backoff
}

// addTaskStats folds one stage's scheduler counters into the job stats.
func (s *Stats) addTaskStats(ts taskStats) {
	s.TaskAttempts += ts.attempts
	s.Retries += ts.retries
	s.SpeculativeLaunches += ts.specLaunches
	s.SpeculativeWins += ts.specWins
	s.BackoffTime += ts.backoff
}

func (s Stats) String() string {
	return fmt.Sprintf("splits=%d mapOut=%d shuffle=%dB groups=%d out=%d attempts=%d retries=%d spec=%d/%d backoff=%s",
		s.InputSplits, s.MapOutput, s.ShuffleBytes, s.ReduceGroups, s.Output,
		s.TaskAttempts, s.Retries, s.SpeculativeWins, s.SpeculativeLaunches,
		s.BackoffTime.Round(time.Microsecond))
}

// DefaultSizeOf estimates value sizes for shuffle accounting: 8 bytes
// per float/int, string length for strings, element-wise for float
// slices, and a conservative 16 bytes otherwise.
func DefaultSizeOf(v any) int {
	switch x := v.(type) {
	case float64, int, int64, uint64:
		return 8
	case string:
		return len(x)
	case []float64:
		return 8 * len(x)
	case []byte:
		return len(x)
	default:
		return 16
	}
}

func workerCount(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// RunCtx executes a MapReduce job over the input splits and returns the
// reducer output sorted by key (ties preserve reducer emission order),
// along with execution statistics. A mapper or reducer failure (error
// or panic) consumes one unit of the task's retry budget and the task
// is re-run after exponential backoff; the job aborts when a task
// exhausts its budget (immediately, with the default zero budget).
// Tasks must be deterministic per split — any randomness must come from
// per-split state reset at attempt start — for retried and speculative
// attempts to commute with failure-free execution. Cancellation of ctx
// is honored between the map, shuffle, and reduce stages and between
// tasks within a stage: a canceled job stops scheduling work and
// returns ctx.Err() instead of running to completion. Shuffle bytes and
// fault-tolerance counters are also credited to any parallel.Stats
// collector carried by ctx.
func RunCtx(ctx context.Context, cfg Config, splits []any, m Mapper, r Reducer) ([]Pair, Stats, error) {
	var stats Stats
	if len(splits) == 0 {
		return nil, stats, ErrNoInput
	}
	ctx, jobSpan := obs.Start(ctx, "mapreduce.job")
	jobSpan.SetInt("splits", int64(len(splits)))
	defer jobSpan.End()
	stats.InputSplits = len(splits)
	sizeOf := cfg.SizeOf
	if sizeOf == nil {
		sizeOf = DefaultSizeOf
	}

	pol, inj := cfg.faultSetup(ctx)

	// Map phase: each task attempt accumulates per-partition output
	// locally, so no locks are needed in the emit hot path and a failed
	// attempt's partial emissions are discarded wholesale.
	nRed := workerCount(cfg.Reducers)
	nMap := workerCount(cfg.Mappers)
	type mapResult struct {
		parts [][]Pair
		count int
		bytes int64
	}
	results, mapTS, err := runTasks(ctx, "map", len(splits), nMap, pol, inj, func(i int) (mapResult, error) {
		res := mapResult{parts: make([][]Pair, nRed)}
		emit := func(p Pair) {
			h := fnv.New32a()
			h.Write([]byte(p.Key))
			part := int(h.Sum32()) % nRed
			res.parts[part] = append(res.parts[part], p)
			res.count++
			res.bytes += int64(len(p.Key) + sizeOf(p.Value))
		}
		if err := m(splits[i], emit); err != nil {
			return mapResult{}, err
		}
		return res, nil
	})
	stats.addTaskStats(mapTS)
	if err != nil {
		return nil, stats, mapreduceErr("map", err)
	}

	// Shuffle: group by key within each partition. Mapper order (split
	// index) fixes value order within each key, keeping jobs
	// deterministic.
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	_, shufSpan := obs.Start(ctx, "mapreduce.shuffle")
	partitions := make([]map[string][]any, nRed)
	for p := range partitions {
		partitions[p] = make(map[string][]any)
	}
	for _, res := range results {
		stats.MapOutput += res.count
		stats.ShuffleBytes += res.bytes
		for p, pairs := range res.parts {
			for _, kv := range pairs {
				partitions[p][kv.Key] = append(partitions[p][kv.Key], kv.Value)
			}
		}
	}
	parallel.StatsFrom(ctx).AddShuffleBytes(stats.ShuffleBytes)
	shufSpan.SetInt("bytes", stats.ShuffleBytes)
	shufSpan.SetInt("pairs", int64(stats.MapOutput))
	shufSpan.End()

	// Reduce phase: partitions in parallel; keys sorted within each
	// partition for determinism. A reduce task's output is buffered per
	// attempt, so a mid-partition crash discards the partial output and
	// the retry rebuilds it from the (immutable) shuffle groups.
	outParts, redTS, err := runTasks(ctx, "reduce", nRed, nRed, pol, inj, func(p int) ([]Pair, error) {
		keys := make([]string, 0, len(partitions[p]))
		for k := range partitions[p] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var out []Pair
		emit := func(kv Pair) { out = append(out, kv) }
		for _, k := range keys {
			if err := r(k, partitions[p][k], emit); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
	stats.addTaskStats(redTS)
	if err != nil {
		return nil, stats, mapreduceErr("reduce", err)
	}

	for p := range partitions {
		stats.ReduceGroups += len(partitions[p])
	}
	var out []Pair
	for _, part := range outParts {
		out = append(out, part...)
	}
	// Final parallel-sort stage (the paper's "assembled via a parallel
	// sort"): merge partition outputs into global key order.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	stats.Output = len(out)
	return out, stats, nil
}

// mapreduceErr wraps a stage failure, passing context errors through
// unwrapped so callers can match errors.Is(err, context.Canceled)
// directly.
func mapreduceErr(stage string, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("mapreduce: %s: %w", stage, err)
}
