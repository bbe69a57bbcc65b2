package driver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/guard"
	"repro/internal/obs"
)

// TestRunCancellation: a context cancelled mid-feed stops dispatch and
// reports ctx.Err(); tasks already dispatched complete.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 100
	var ran atomic.Int32
	err := Run(ctx, n, Options{Workers: 2}, func(ctx context.Context, i int, rec *obs.Recorder) error {
		if ran.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got == 0 || got == n {
		t.Errorf("ran %d tasks, want some but not all %d", got, n)
	}
}

// TestRunAlreadyCancelled: a context done before Run starts dispatches
// no task at all.
func TestRunAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := Run(ctx, 2, Options{Workers: 2}, func(ctx context.Context, i int, rec *obs.Recorder) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 0 {
		t.Errorf("ran %d tasks despite pre-cancelled context", got)
	}
}

// TestRunErrorReporting: the lowest-index failure wins, wrapped with its
// index; later successes still run.
func TestRunErrorReporting(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := Run(context.Background(), 8, Options{Workers: 4}, func(ctx context.Context, i int, rec *obs.Recorder) error {
		ran.Add(1)
		if i == 2 || i == 5 {
			return fmt.Errorf("task body %d: %w", i, boom)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if want := "driver: task 2:"; err == nil || len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
		t.Errorf("err = %q, want prefix %q", err, want)
	}
	if ran.Load() != 8 {
		t.Errorf("ran %d tasks, want all 8 (one failure must not stop the batch)", ran.Load())
	}
}

func TestRunZeroTasks(t *testing.T) {
	if err := Run(context.Background(), 0, Options{}, nil); err != nil {
		t.Fatalf("n=0: %v", err)
	}
}

func TestRunDefaultWorkers(t *testing.T) {
	var ran atomic.Int32
	err := Run(context.Background(), 5, Options{Workers: 0}, func(ctx context.Context, i int, rec *obs.Recorder) error {
		ran.Add(1)
		return nil
	})
	if err != nil || ran.Load() != 5 {
		t.Fatalf("err=%v ran=%d, want nil/5", err, ran.Load())
	}
}

// TestRunCollectErrorOrderDeterministic: under Collect the joined error
// lists every failure in task-index order no matter which worker
// finishes first.  make ci runs this package under -race, so the
// repeated rounds also exercise the error-slice synchronisation.
func TestRunCollectErrorOrderDeterministic(t *testing.T) {
	fail := map[int]error{
		3:  errors.New("gamma"),
		7:  errors.New("eta"),
		11: errors.New("lambda"),
	}
	for round := 0; round < 25; round++ {
		err := Run(context.Background(), 16, Options{Workers: 8, Policy: Collect},
			func(ctx context.Context, i int, rec *obs.Recorder) error {
				runtime.Gosched() // shuffle completion order
				return fail[i]
			})
		if err == nil {
			t.Fatal("failures not reported")
		}
		want := "driver: task 3: gamma\ndriver: task 7: eta\ndriver: task 11: lambda"
		if got := err.Error(); got != want {
			t.Fatalf("round %d: joined error out of index order:\ngot:\n%s\nwant:\n%s", round, got, want)
		}
		for i, cause := range fail {
			if !errors.Is(err, cause) {
				t.Errorf("round %d: joined error does not match task %d's cause", round, i)
			}
		}
	}
}

// TestRunFailFastCancelsRest: the first failure cancels the worker
// context; parked siblings wake up and the batch returns only the
// lowest-index error.  If the cancellation were not propagated the
// parked tasks would block forever and the test would time out.
func TestRunFailFastCancelsRest(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := Run(context.Background(), 50, Options{Workers: 4, Policy: FailFast},
		func(ctx context.Context, i int, rec *obs.Recorder) error {
			ran.Add(1)
			if i == 0 {
				return boom
			}
			<-ctx.Done() // park until FailFast cancels the batch
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if want := "driver: task 0: boom"; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
	if got := ran.Load(); got == 50 {
		t.Error("FailFast dispatched every task despite an early failure")
	}
}

// TestRunRecoversPanic: a panicking task is converted into a typed
// *guard.ErrInternal naming the task, and its siblings still run.
func TestRunRecoversPanic(t *testing.T) {
	var ran atomic.Int32
	err := Run(context.Background(), 6, Options{Workers: 2},
		func(ctx context.Context, i int, rec *obs.Recorder) error {
			ran.Add(1)
			if i == 2 {
				panic("poisoned task")
			}
			return nil
		})
	var ie *guard.ErrInternal
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *guard.ErrInternal", err)
	}
	if ie.Grammar != "task 2" || len(ie.Stack) == 0 {
		t.Errorf("ErrInternal = {Grammar: %q, %d stack bytes}, want task 2 with a stack", ie.Grammar, len(ie.Stack))
	}
	if ran.Load() != 6 {
		t.Errorf("ran %d tasks, want all 6 (Collect keeps going past a panic)", ran.Load())
	}
}
