package mapreduce

// Each map or reduce stage is one parallel.For loop: task i is
// iteration i and writes only results[i]. Retries with backoff, fault
// injection and their counters are For's, asked for on the context
// (parallel.WithRetryPolicy, parallel.WithFaultInjector) as for every
// other loop.
//
// Determinism under faults rests on attempts being hermetic. A task
// function receives only its task index and buffers all output
// locally, so a failed attempt's partial output is discarded wholesale
// and every attempt of a task computes the identical result (callers
// that use randomness clone the task's pre-split rng substream per
// attempt). Any fault schedule that lets every task eventually succeed
// therefore yields output bit-identical to the failure-free run at any
// worker count.

import (
	"context"
	"fmt"

	"modeldata/internal/obs"
	"modeldata/internal/parallel"
)

// runTasks runs the n tasks of one stage on at most workers goroutines
// and returns their results in index order. Task i is stage[i] to a
// fault injector and in a failed task's error. A panicking task fails
// with ErrWorkerPanic, retried like any other failure.
func runTasks[T any](ctx context.Context, stage string, n, workers int, run func(i int) (T, error)) ([]T, error) {
	ctx, span := obs.Start(ctx, "mapreduce."+stage)
	defer span.End()
	ctx = parallel.WithStage(ctx, stage)
	results := make([]T, n)
	err := parallel.For(ctx, n, parallel.Options{Workers: workers}, func(i int) (err error) {
		// For recovers panics only when a policy or an injector is
		// installed; a task's own panic is an error either way.
		defer func() {
			if r := recover(); r != nil {
				if e, ok := r.(error); ok {
					err = fmt.Errorf("%w: %s[%d]: %w", ErrWorkerPanic, stage, i, e)
					return
				}
				err = fmt.Errorf("%w: %s[%d]: %v", ErrWorkerPanic, stage, i, r)
			}
		}()
		results[i], err = run(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
