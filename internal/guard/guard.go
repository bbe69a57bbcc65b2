// Package guard makes the analysis pipeline safe to put in front of
// untrusted grammars.  The paper's headline claim is that DeRemer–
// Pennello look-ahead is cheap — but the baselines the harness runs for
// comparison (canonical LR(1) with merging, yacc propagation) and the
// LR(0) construction itself are superlinear and can blow up on
// pathological grammars (Blum's exponential LR(k) state growth).  A
// Budget carries a context.Context plus hard resource limits and is
// threaded through every hot loop of the pipeline; violations surface
// as a small typed error taxonomy:
//
//   - ErrCanceled (sentinel, via errors.Is) when the context is done or
//     the wall-clock deadline passed, wrapped in a *CancelError that
//     names the phase and the cause;
//   - *ErrLimitExceeded when a resource count crossed its configured
//     maximum, carrying the resource, the limit, the observed count and
//     the phase;
//   - *ErrInternal when a panic escaped a pipeline stage, carrying the
//     grammar name and the recovered stack — the fault-containment
//     boundary of Analyze/Lint and the batch driver.
//
// Checkpoints are amortized: Check is a counter decrement on the fast
// path and consults the clock, the context and the fault-injection hook
// only every CheckEvery calls, so governed loops stay within noise of
// ungoverned ones.  A nil *Budget is the ungoverned pipeline: every
// method is a nil-safe no-op, mirroring the obs.Recorder idiom.
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Resource names one governed quantity of the pipeline.
type Resource string

// Governed resources.
const (
	// ResLR0States is the LR(0) canonical-collection state count.
	ResLR0States Resource = "lr0_states"
	// ResLR1States is the canonical LR(1) state count — the real
	// explosion risk of MethodCanonicalMerge.
	ResLR1States Resource = "lr1_states"
	// ResTableEntries counts ACTION/GOTO entries installed during table
	// fill.
	ResTableEntries Resource = "table_entries"
	// ResRelationEdges counts reads/includes/lookback edges built and
	// traversed by the DeRemer–Pennello relations and propagation.
	ResRelationEdges Resource = "relation_edges"
)

// Limits are hard resource ceilings for one analysis.  Zero fields are
// unlimited.  Limits are per-grammar: a batch applies the same Limits
// to each grammar independently.
type Limits struct {
	// MaxStates bounds the LR(0) state count.
	MaxStates int
	// MaxLR1States bounds the canonical LR(1) state count
	// (MethodCanonicalMerge only).
	MaxLR1States int
	// MaxTableEntries bounds installed ACTION/GOTO entries.
	MaxTableEntries int
	// MaxRelationEdges bounds relation edges built/traversed (reads,
	// includes, lookback, propagation).
	MaxRelationEdges int
	// CheckEvery is the checkpoint amortization interval: the context,
	// clock and fault hook are consulted once per CheckEvery Check
	// calls.  Zero means DefaultCheckEvery.
	CheckEvery int
}

// DefaultCheckEvery is the checkpoint amortization interval used when
// Limits.CheckEvery is zero: small enough that cancellation lands
// within microseconds on real grammars, large enough that the fast
// path is one branch and one decrement.
const DefaultCheckEvery = 256

// limitFor returns the configured ceiling for a resource (0 = none).
func (l Limits) limitFor(r Resource) int {
	switch r {
	case ResLR0States:
		return l.MaxStates
	case ResLR1States:
		return l.MaxLR1States
	case ResTableEntries:
		return l.MaxTableEntries
	case ResRelationEdges:
		return l.MaxRelationEdges
	default:
		return 0
	}
}

// ErrCanceled is the sentinel every cancellation error matches with
// errors.Is, whether it came from a done context or a passed deadline.
var ErrCanceled = errors.New("guard: analysis canceled")

// CancelError is a cancellation with its phase and cause attached.  It
// matches ErrCanceled and its cause (context.Canceled or
// context.DeadlineExceeded) under errors.Is.
type CancelError struct {
	// Phase is the pipeline phase that hit the checkpoint.
	Phase string
	// Cause is context.Canceled, context.DeadlineExceeded, or the
	// context's own cause.
	Cause error
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("guard: analysis canceled in phase %s: %v", e.Phase, e.Cause)
}

// Unwrap makes errors.Is(err, ErrCanceled) and errors.Is(err, e.Cause)
// both true.
func (e *CancelError) Unwrap() []error { return []error{ErrCanceled, e.Cause} }

// ErrLimit is the sentinel every *ErrLimitExceeded matches with
// errors.Is, for callers that don't care which resource tripped.
var ErrLimit = errors.New("guard: resource limit exceeded")

// ErrLimitExceeded reports a resource count crossing its ceiling.
// Retrieve it with errors.As; it also matches ErrLimit via errors.Is.
type ErrLimitExceeded struct {
	// Resource is the governed quantity that tripped.
	Resource Resource
	// Limit is the configured ceiling; Observed the count that crossed
	// it.
	Limit, Observed int
	// Phase is the pipeline phase where the count was taken.
	Phase string
}

func (e *ErrLimitExceeded) Error() string {
	return fmt.Sprintf("guard: %s limit exceeded in phase %s: %d > %d",
		e.Resource, e.Phase, e.Observed, e.Limit)
}

// Is matches the ErrLimit sentinel.
func (e *ErrLimitExceeded) Is(target error) bool { return target == ErrLimit }

// ErrInternal is a panic converted to an error at a fault-containment
// boundary (repro.Analyze, repro.Lint, the batch driver).  One poisoned
// grammar yields one ErrInternal entry; the rest of a corpus completes.
type ErrInternal struct {
	// Grammar names the input being analyzed when the panic fired
	// (empty when unknown at the recovery site).
	Grammar string
	// Value is the recovered panic value.
	Value any
	// Stack is the debug.Stack() snapshot taken at recovery.
	Stack []byte
}

func (e *ErrInternal) Error() string {
	if e.Grammar == "" {
		return fmt.Sprintf("guard: internal panic: %v", e.Value)
	}
	return fmt.Sprintf("guard: internal panic analyzing %s: %v", e.Grammar, e.Value)
}

// NewInternal converts a recovered panic value into an *ErrInternal,
// capturing the stack at the call site.  If v already is an error that
// wraps an *ErrInternal (a nested recovery), it is returned unchanged
// so the innermost grammar attribution survives.
func NewInternal(grammarName string, v any) error {
	if err, ok := v.(error); ok {
		var inner *ErrInternal
		if errors.As(err, &inner) {
			return err
		}
	}
	return &ErrInternal{Grammar: grammarName, Value: v, Stack: debug.Stack()}
}

// Budget governs one analysis: a context, hard limits, and the
// amortized checkpoint state.  A Budget is single-goroutine, like the
// pipeline it rides along; batch drivers build one Budget per task.
// The nil *Budget is fully functional and enforces nothing.
type Budget struct {
	ctx      context.Context
	limits   Limits
	rec      *obs.Recorder
	owner    string
	phase    string
	deadline time.Time

	countdown int
	every     int
	err       error // sticky: first violation wins, later checks repeat it

	// checks counts full (non-amortized) checkpoint evaluations.  On a
	// Budget with a recorder it mirrors what was already added to the
	// recorder; on a forked child (whose recorder is nil, recorders
	// being single-goroutine) it is the whole record, folded back into
	// the parent's recorder by Join.
	checks int64
}

// New returns a Budget enforcing ctx and limits, recording checkpoint
// and abort counters into rec (which may be nil).  When there is
// nothing to enforce — nil or non-cancellable context, zero limits, no
// armed fault — New returns nil, and every checkpoint in the pipeline
// degenerates to a nil-receiver no-op.
func New(ctx context.Context, limits Limits, rec *obs.Recorder) *Budget {
	if limits == (Limits{}) && !FaultArmed() && (ctx == nil || ctx.Done() == nil) {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	deadline, _ := ctx.Deadline()
	every := limits.CheckEvery
	if every <= 0 {
		every = DefaultCheckEvery
	}
	return &Budget{
		ctx:      ctx,
		limits:   limits,
		rec:      rec,
		deadline: deadline,
		every:    every,
		// First Check consults the context immediately, so a
		// pre-cancelled context aborts before any work.
		countdown: 1,
	}
}

// SetOwner names the input being analyzed (the grammar name), used by
// fault-injection matching and error attribution.
func (b *Budget) SetOwner(name string) {
	if b == nil {
		return
	}
	b.owner = name
}

// Owner returns the name set with SetOwner ("" on a nil Budget).
func (b *Budget) Owner() string {
	if b == nil {
		return ""
	}
	return b.owner
}

// Phase sets the current pipeline phase for error attribution and
// fault-injection matching, returning the previous phase so nested
// stages can restore it:
//
//	defer bud.Phase(bud.Phase("lr0-states"))
func (b *Budget) Phase(name string) (prev string) {
	if b == nil {
		return ""
	}
	prev = b.phase
	b.phase = name
	return prev
}

// Err returns the sticky violation recorded by an earlier checkpoint,
// or nil.  Once a Budget has failed, every later Check and Limit call
// returns the same error, so a stage that misses one error return
// cannot silently resume.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	return b.err
}

// Check is the amortized cancellation checkpoint for hot loops: on most
// calls it is one decrement and one branch; every CheckEvery calls it
// consults the fault hook, the context and the deadline.  It returns a
// *CancelError (matching ErrCanceled) on cancellation, the sticky
// violation if one already fired, or nil.
func (b *Budget) Check() error {
	if b == nil {
		return nil
	}
	if b.err != nil {
		return b.err
	}
	b.countdown--
	if b.countdown > 0 {
		return nil
	}
	return b.checkNow()
}

// checkNow is the full checkpoint: fault hook first (so injected faults
// are deterministic even under cancellation), then context, then
// deadline.
func (b *Budget) checkNow() error {
	b.countdown = b.every
	b.checks++
	b.rec.Add(obs.CGuardChecks, 1)
	if f := armedFault.Load(); f != nil {
		if err := f.fire(b.owner, b.phase); err != nil {
			return b.fail(err)
		}
	}
	if err := b.ctx.Err(); err != nil {
		return b.fail(&CancelError{Phase: b.phase, Cause: cause(b.ctx, err)})
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		return b.fail(&CancelError{Phase: b.phase, Cause: context.DeadlineExceeded})
	}
	return nil
}

// cause prefers the context's recorded cancel cause over the bare
// ctx.Err(), preserving context.WithCancelCause attributions.
func cause(ctx context.Context, err error) error {
	if c := context.Cause(ctx); c != nil {
		return c
	}
	return err
}

// Limit records an observed resource count and returns an
// *ErrLimitExceeded if it crossed the configured ceiling.  It is cheap
// enough to call per unit of growth (one comparison on the fast path);
// callers in per-element loops may prefer calling it per batch.
func (b *Budget) Limit(res Resource, observed int) error {
	if b == nil {
		return nil
	}
	if b.err != nil {
		return b.err
	}
	if max := b.limits.limitFor(res); max > 0 && observed > max {
		return b.fail(&ErrLimitExceeded{
			Resource: res, Limit: max, Observed: observed, Phase: b.phase,
		})
	}
	return nil
}

// fail records the first violation and the abort counter.
func (b *Budget) fail(err error) error {
	if b.err == nil {
		b.err = err
		b.rec.Add(obs.CGuardAborts, 1)
	}
	return b.err
}

// Fork returns a child Budget for one worker goroutine of a parallel
// stage: same context, limits, deadline, owner and phase, but its own
// checkpoint state and no recorder — a Recorder is single-goroutine,
// so the child counts its full checkpoints locally and Join folds them
// back.  A child inherits the parent's sticky violation, so workers
// spawned after a trip abort at their first checkpoint.  Fork on a nil
// Budget returns nil (the ungoverned pipeline stays ungoverned).
func (b *Budget) Fork() *Budget {
	if b == nil {
		return nil
	}
	return &Budget{
		ctx:      b.ctx,
		limits:   b.limits,
		owner:    b.owner,
		phase:    b.phase,
		deadline: b.deadline,
		every:    b.every,
		err:      b.err,
		// Like New: the first Check consults the context immediately.
		countdown: 1,
	}
}

// Join folds a forked child back into b after its worker goroutine has
// finished: the child's full-checkpoint count is re-attributed to b's
// recorder, and the child's violation (if any) becomes b's sticky error
// when b has none.  Join must be called from the goroutine that owns b,
// after the child's goroutine has completed (a WaitGroup or channel
// provides the happens-before edge).  It returns b's sticky error, so
// coordinators can join every worker and surface the first violation in
// worker order.  Nil-safe on both sides.
func (b *Budget) Join(child *Budget) error {
	if b == nil || child == nil {
		return b.Err()
	}
	b.rec.Add(obs.CGuardChecks, child.checks)
	b.checks += child.checks
	child.checks = 0
	if child.err != nil && b.err == nil {
		b.err = child.err
		b.rec.Add(obs.CGuardAborts, 1)
	}
	return b.err
}

// Fault is a deterministic fault-injection point for tests: it fires at
// the first full checkpoint whose Budget owner and phase match, without
// needing a pathological input to reach the code path.  Do may return
// an error (surfaced from the checkpoint, exercising the limit-trip and
// cancellation plumbing) or panic (exercising the fault-containment
// boundaries).
type Fault struct {
	// Owner must equal the Budget's owner, or be "" to match any.
	Owner string
	// Phase must equal the current phase, or be "" to match any.
	Phase string
	// Skip is how many matching checkpoints to let pass before firing.
	Skip int
	// Do runs at the matching checkpoint.  A non-nil error is returned
	// from Check; a panic propagates to the enclosing containment
	// boundary.
	Do func() error

	seen atomic.Int64
	done atomic.Bool
}

// armedFault is the active injection, nil almost always.  Checkpoints
// pay one atomic load only on their amortized slow path, so arming a
// fault costs nothing measurable to ungoverned runs (their Budget is
// non-nil solely because FaultArmed makes New return one).
var armedFault atomic.Pointer[Fault]

// InjectFault arms f and returns a restore function that disarms it.
// Test-only: exactly one fault can be armed at a time, and tests that
// arm faults must not run in parallel with other guard-sensitive tests.
func InjectFault(f *Fault) (restore func()) {
	armedFault.Store(f)
	return func() { armedFault.Store(nil) }
}

// FaultArmed reports whether a fault is currently armed; guard.New
// returns a live Budget whenever it is, so injected faults reach
// checkpoints even in otherwise-ungoverned runs.
func FaultArmed() bool { return armedFault.Load() != nil }

// fire runs the fault if owner/phase match and it has not fired yet.
// Firing is once-only across all matching checkpoints (and safe if
// several workers race to it), so one armed fault poisons exactly one
// task of a corpus run.
func (f *Fault) fire(owner, phase string) error {
	if f.Do == nil || f.done.Load() {
		return nil
	}
	if f.Owner != "" && f.Owner != owner {
		return nil
	}
	if f.Phase != "" && f.Phase != phase {
		return nil
	}
	if f.seen.Add(1)-1 < int64(f.Skip) {
		return nil
	}
	if !f.done.CompareAndSwap(false, true) {
		return nil
	}
	return f.Do()
}
