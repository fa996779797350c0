// Package mapreduce is an in-process MapReduce runtime: parallel
// mappers over input splits, a partitioned shuffle with byte
// accounting, and parallel reducers. It stands in for the Hadoop
// clusters used by SimSQL and Splash in the paper; the experiments that
// compare algorithms "on MapReduce" (time alignment, DSGD spline
// solving, §2.2) use the shuffle-byte counters of this package as the
// scale-free proxy for cluster communication cost.
//
// Like the Hadoop substrate it models, the runtime is fault-tolerant at
// task granularity: each stage is one parallel.For loop, so with a
// retry policy on the context (parallel.WithRetryPolicy) a crashed map
// or reduce task is re-run with exponential backoff instead of failing
// the job. The attempts, retries and backoff are counted in the
// context's parallel.Stats registry. Output is bit-identical to a
// failure-free run under any fault schedule that lets every task
// eventually succeed — see tasks.go for the argument.
package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"

	"modeldata/internal/obs"
	"modeldata/internal/parallel"
)

// ErrNoInput is returned when a job is run with no input splits.
var ErrNoInput = errors.New("mapreduce: no input splits")

// ErrWorkerPanic is in the chain of the error a job returns when a
// mapper, a reducer or an injected fault panics; the panic value is
// attached. Like a real cluster framework, a task crash fails the job
// only after the retry budget of the context's retry policy
// (parallel.WithRetryPolicy; zero by default) is exhausted. It is
// parallel.ErrPanicked, the sentinel of every recovered task panic.
var ErrWorkerPanic = parallel.ErrPanicked

// Pair is a keyed intermediate or output record.
type Pair struct {
	Key   string
	Value any
}

// Mapper processes one input split, emitting intermediate pairs.
type Mapper func(split any, emit func(Pair)) error

// Reducer processes all values that share a key, emitting output pairs.
type Reducer func(key string, values []any, emit func(Pair)) error

// Config bounds job parallelism. Retries and fault injection are
// asked for on the context (parallel.WithRetryPolicy,
// parallel.WithFaultInjector), as for every other task runtime.
type Config struct {
	// Mappers and Reducers bound worker parallelism; zero means
	// GOMAXPROCS.
	Mappers, Reducers int
}

// Stats reports what a job did. Its fault-tolerance activity (task
// attempts, retries, backoff) is counted in the registry
// of the parallel.Stats the context carries.
type Stats struct {
	InputSplits  int
	MapOutput    int   // intermediate pairs emitted by mappers
	ShuffleBytes int64 // estimated bytes moved through the shuffle
	ReduceGroups int   // distinct keys reduced
	Output       int   // output pairs emitted by reducers
}

func (s Stats) String() string {
	return fmt.Sprintf("splits=%d mapOut=%d shuffle=%dB groups=%d out=%d",
		s.InputSplits, s.MapOutput, s.ShuffleBytes, s.ReduceGroups, s.Output)
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
// per-split state reset at attempt start — for retried attempts to
// commute with failure-free execution. Cancellation of ctx
// is honored between the map, shuffle, and reduce stages and between
// tasks within a stage: a canceled job stops scheduling work and
// returns ctx.Err() instead of running to completion. The retry policy
// and fault injector come from ctx; shuffle bytes and fault-tolerance
// counters are credited to any parallel.Stats collector it carries.
func RunCtx(ctx context.Context, cfg Config, splits []any, m Mapper, r Reducer) ([]Pair, Stats, error) {
	var stats Stats
	if len(splits) == 0 {
		return nil, stats, ErrNoInput
	}
	ctx, jobSpan := obs.Start(ctx, "mapreduce.job")
	jobSpan.SetInt("splits", int64(len(splits)))
	defer jobSpan.End()
	stats.InputSplits = len(splits)

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
	results, err := runTasks(ctx, "map", len(splits), nMap, func(i int) (mapResult, error) {
		res := mapResult{parts: make([][]Pair, nRed)}
		emit := func(p Pair) {
			h := fnv.New32a()
			h.Write([]byte(p.Key))
			part := int(h.Sum32()) % nRed
			res.parts[part] = append(res.parts[part], p)
			res.count++
			res.bytes += int64(len(p.Key) + DefaultSizeOf(p.Value))
		}
		if err := m(splits[i], emit); err != nil {
			return mapResult{}, err
		}
		return res, nil
	})
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
	outParts, err := runTasks(ctx, "reduce", nRed, nRed, func(p int) ([]Pair, error) {
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
