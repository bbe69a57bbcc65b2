// Package driver runs the analysis pipeline over many grammars
// concurrently.  The paper's algorithm is single-grammar and
// single-threaded — its efficiency claim is about the relation sizes —
// but the experiment harness runs it over a whole corpus, and those runs
// are independent, so the batch parallelises trivially.  The driver is a
// bounded worker pool with three invariants the harness relies on:
//
//   - results are positionally deterministic: output i belongs to input
//     i, whatever order the workers finished in;
//   - observability survives: each worker records into a private
//     obs.Recorder (the Recorder type is deliberately lock-free and
//     single-goroutine), and the private recorders are folded into the
//     caller's with Recorder.Merge, in worker order, after the pool has
//     drained — counter totals come out identical to a serial run;
//   - cancellation is prompt: once ctx is done no new work is started,
//     and Run reports ctx.Err() after in-flight work completes.
package driver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/guard"
	"repro/internal/obs"
)

// Policy selects how a batch reacts to a failing task.
type Policy int

const (
	// Collect (the default) runs every task regardless of failures and
	// reports all errors joined in task-index order — the corpus-harness
	// behaviour, where one bad grammar must not hide the other results.
	Collect Policy = iota
	// FailFast cancels the batch on the first failure: no new tasks are
	// dispatched after a task errors (in-flight tasks complete), and the
	// lowest-index error observed is reported alone.
	FailFast
)

// Options configure a batch run.
type Options struct {
	// Workers bounds the number of concurrent tasks.  Zero or negative
	// means runtime.GOMAXPROCS(0); 1 degenerates to a serial run through
	// the same code path.
	Workers int
	// Recorder, when non-nil, receives the spans and counters of every
	// task.  Counter totals equal a serial run's; span subtrees arrive
	// grouped by the worker that happened to run them.
	Recorder *obs.Recorder
	// Policy selects the error-handling discipline; the zero value is
	// Collect.
	Policy Policy
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// Run executes fn(ctx, i, rec) for every i in [0, n) on a pool of
// opts.Workers goroutines.  The rec passed to fn is a per-worker
// recorder (nil if opts.Recorder is nil): fn may use it freely without
// synchronisation, because no two tasks of the same worker overlap.
//
// Error handling is deterministic under either Policy, whatever order
// the workers finish in: every task error is wrapped with its index,
// and errors are reported in ascending task-index order — Collect joins
// them all (errors.Is/As see every one), FailFast returns the lowest-
// index error alone.  Run reports ctx.Err() if the batch was cut short
// by cancellation and no task failed; indices never dispatched report
// no error.  It never starts new work after ctx is done, but lets
// in-flight tasks finish.
//
// A task that panics is contained: the panic is recovered on the
// worker, converted to a *guard.ErrInternal carrying the task index and
// stack, and treated as that task's error — the other tasks of the
// batch are unaffected (under Collect they all still run).
func Run(ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int, rec *obs.Recorder) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	outer := ctx
	stop := context.CancelFunc(func() {})
	if opts.Policy == FailFast {
		// Internal cancellation layer: the first failing task stops
		// dispatch without requiring the caller to pass a cancellable
		// context.  Tasks observe the wrapped ctx, so budgeted pipelines
		// abort at their next checkpoint too.
		ctx, stop = context.WithCancel(ctx)
		defer stop()
	}
	workers := opts.workers(n)
	recs := make([]*obs.Recorder, workers)
	errs := make([]error, n)
	runTask := func(i int, rec *obs.Recorder) (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = guard.NewInternal(fmt.Sprintf("task %d", i), v)
			}
		}()
		return fn(ctx, i, rec)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		var rec *obs.Recorder
		if opts.Recorder != nil {
			rec = obs.New()
			recs[w] = rec
		}
		wg.Add(1)
		go func(rec *obs.Recorder) {
			defer wg.Done()
			for i := range idx {
				if errs[i] = runTask(i, rec); errs[i] != nil && opts.Policy == FailFast {
					stop()
				}
			}
		}(rec)
	}
	var cancelled bool
feed:
	for i := 0; i < n; i++ {
		// select picks at random among ready cases, so a done ctx must
		// be seen before offering i to an idle worker.
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			cancelled = true
			break feed
		}
	}
	close(idx)
	wg.Wait()
	// Merge in worker order: the only deterministic order available
	// (task→worker assignment is scheduling-dependent), and enough to
	// make counter totals and root ordering reproducible per worker.
	for _, r := range recs {
		opts.Recorder.Merge(r)
	}
	var joined []error
	for i, err := range errs {
		if err != nil {
			wrapped := fmt.Errorf("driver: task %d: %w", i, err)
			if opts.Policy == FailFast {
				return wrapped
			}
			joined = append(joined, wrapped)
		}
	}
	if len(joined) > 0 {
		return errors.Join(joined...)
	}
	if cancelled && outer.Err() != nil {
		return outer.Err()
	}
	return nil
}
