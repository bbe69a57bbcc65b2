package guard

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestNilBudgetIsNoOp(t *testing.T) {
	var b *Budget
	if err := b.Check(); err != nil {
		t.Fatalf("nil Check: %v", err)
	}
	if err := b.Limit(ResLR0States, 1<<30); err != nil {
		t.Fatalf("nil Limit: %v", err)
	}
	if err := b.Err(); err != nil {
		t.Fatalf("nil Err: %v", err)
	}
	b.SetOwner("x")
	if b.Owner() != "" || b.Phase("p") != "" {
		t.Fatal("nil Budget leaked state")
	}
}

func TestNewReturnsNilWhenNothingToEnforce(t *testing.T) {
	if b := New(nil, Limits{}, nil); b != nil {
		t.Fatal("New(nil, zero limits) should be nil")
	}
	if b := New(context.Background(), Limits{}, nil); b != nil {
		t.Fatal("New(Background, zero limits) should be nil")
	}
	if b := New(context.Background(), Limits{MaxStates: 1}, nil); b == nil {
		t.Fatal("New with limits should be live")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if b := New(ctx, Limits{}, nil); b == nil {
		t.Fatal("New with cancellable context should be live")
	}
}

func TestCheckCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := New(ctx, Limits{}, nil)
	b.Phase("lr0-states")
	cancel()
	err := b.Check() // countdown starts at 1: first Check is a full one
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to match context.Canceled too", err)
	}
	var ce *CancelError
	if !errors.As(err, &ce) || ce.Phase != "lr0-states" {
		t.Fatalf("err = %#v, want CancelError in phase lr0-states", err)
	}
	// Sticky: later calls repeat the violation.
	if err2 := b.Check(); err2 != err {
		t.Fatalf("sticky err = %v, want %v", err2, err)
	}
	if err2 := b.Limit(ResLR0States, 0); err2 != err {
		t.Fatalf("Limit after failure = %v, want sticky %v", err2, err)
	}
}

func TestCheckDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	b := New(ctx, Limits{}, nil)
	b.Phase("solve-reads")
	err := b.Check()
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled ∧ DeadlineExceeded", err)
	}
}

func TestCheckAmortization(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := New(ctx, Limits{CheckEvery: 10}, nil)
	if err := b.Check(); err != nil { // first full check, context live
		t.Fatalf("first check: %v", err)
	}
	cancel()
	// The next 9 checks ride the amortization window.
	for i := 0; i < 9; i++ {
		if err := b.Check(); err != nil {
			t.Fatalf("check %d inside window: %v", i, err)
		}
	}
	if err := b.Check(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("check at window edge = %v, want ErrCanceled", err)
	}
}

func TestLimitTrip(t *testing.T) {
	rec := obs.New()
	b := New(context.Background(), Limits{MaxLR1States: 100}, rec)
	b.Phase("lr1-states")
	if err := b.Limit(ResLR1States, 100); err != nil {
		t.Fatalf("at limit: %v", err)
	}
	err := b.Limit(ResLR1States, 101)
	var le *ErrLimitExceeded
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want ErrLimitExceeded", err)
	}
	if le.Resource != ResLR1States || le.Limit != 100 || le.Observed != 101 || le.Phase != "lr1-states" {
		t.Fatalf("bad fields: %+v", le)
	}
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v, want to match ErrLimit sentinel", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatal("limit error must not match ErrCanceled")
	}
	if got := rec.Counter(obs.CGuardAborts); got != 1 {
		t.Fatalf("guard_aborts = %d, want 1", got)
	}
	// Other resources are unlimited.
	if err := b.Err(); err == nil {
		t.Fatal("Err() lost the sticky violation")
	}
}

func TestLimitUnconfiguredResource(t *testing.T) {
	b := New(context.Background(), Limits{MaxStates: 5}, nil)
	if err := b.Limit(ResTableEntries, 1<<30); err != nil {
		t.Fatalf("unlimited resource tripped: %v", err)
	}
	if err := b.Limit(ResLR0States, 6); err == nil {
		t.Fatal("configured resource did not trip")
	}
}

func TestInjectFaultError(t *testing.T) {
	boom := errors.New("injected")
	restore := InjectFault(&Fault{Owner: "g1", Phase: "lr0-states", Do: func() error { return boom }})
	defer restore()

	// Non-matching owner: never fires.
	other := New(context.Background(), Limits{}, nil)
	other.SetOwner("g2")
	other.Phase("lr0-states")
	if err := other.Check(); err != nil {
		t.Fatalf("non-matching owner fired: %v", err)
	}

	b := New(context.Background(), Limits{}, nil)
	b.SetOwner("g1")
	b.Phase("lr0-states")
	if err := b.Check(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}

	// Once-only: a second matching budget sees nothing.
	b2 := New(context.Background(), Limits{}, nil)
	b2.SetOwner("g1")
	b2.Phase("lr0-states")
	if err := b2.Check(); err != nil {
		t.Fatalf("fault fired twice: %v", err)
	}
}

func TestInjectFaultSkip(t *testing.T) {
	fired := 0
	restore := InjectFault(&Fault{Skip: 2, Do: func() error { fired++; return nil }})
	defer restore()
	b := New(context.Background(), Limits{CheckEvery: 1}, nil)
	for i := 0; i < 5; i++ {
		if err := b.Check(); err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
	}
	if fired != 1 {
		t.Fatalf("fault fired %d times, want exactly once after 2 skips", fired)
	}
}

func TestNewInternalPreservesInnerError(t *testing.T) {
	inner := NewInternal("pascal", "boom")
	var ie *ErrInternal
	if !errors.As(inner, &ie) || ie.Grammar != "pascal" || len(ie.Stack) == 0 {
		t.Fatalf("bad ErrInternal: %#v", inner)
	}
	outer := NewInternal("", inner)
	if outer != inner {
		t.Fatalf("nested recovery replaced the inner attribution: %v", outer)
	}
}

func TestGuardChecksCounter(t *testing.T) {
	rec := obs.New()
	b := New(context.Background(), Limits{CheckEvery: 2}, rec)
	for i := 0; i < 10; i++ {
		if err := b.Check(); err != nil {
			t.Fatal(err)
		}
	}
	// countdown starts at 1, then every 2: full checks at calls 1, 3, 5, 7, 9.
	if got := rec.Counter(obs.CGuardChecks); got != 5 {
		t.Fatalf("guard_checks = %d, want 5", got)
	}
}
