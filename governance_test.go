package repro_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro"
	"repro/internal/grammars"
	"repro/internal/guard"
)

// allMethods is every look-ahead method the public API accepts, so the
// governance tests prove the budget reaches each pipeline variant.
var allMethods = []repro.Method{
	repro.MethodDeRemerPennello,
	repro.MethodSLR,
	repro.MethodPropagation,
	repro.MethodCanonicalMerge,
}

// TestAnalyzeCanonicalLimitTrip is the acceptance test for resource
// limits: the canonical LR(1) collection — the pipeline's real
// explosion risk — must stop at MaxLR1States and report a typed error
// carrying the phase and both counts.
func TestAnalyzeCanonicalLimitTrip(t *testing.T) {
	g := grammars.MustLoad("pascal")
	res, err := repro.Analyze(g, repro.Options{
		Method: repro.MethodCanonicalMerge,
		Limits: repro.Limits{MaxLR1States: 40},
	})
	if res != nil {
		t.Error("result returned despite tripped limit")
	}
	if !errors.Is(err, repro.ErrLimit) {
		t.Fatalf("err = %v, want match for repro.ErrLimit", err)
	}
	var le *repro.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *repro.LimitError", err)
	}
	if le.Resource != guard.ResLR1States {
		t.Errorf("Resource = %q, want %q", le.Resource, guard.ResLR1States)
	}
	if le.Phase != "lr1-states" {
		t.Errorf("Phase = %q, want %q", le.Phase, "lr1-states")
	}
	if le.Limit != 40 || le.Observed <= le.Limit {
		t.Errorf("Observed/Limit = %d/%d, want observed > limit = 40", le.Observed, le.Limit)
	}
}

// TestAnalyzeLR0LimitTrip: MaxStates bounds the LR(0) construction
// every method shares, with the phase attributed correctly.
func TestAnalyzeLR0LimitTrip(t *testing.T) {
	g := grammars.MustLoad("pascal")
	for _, m := range allMethods {
		res, err := repro.Analyze(g, repro.Options{
			Method: m,
			Limits: repro.Limits{MaxStates: 10},
		})
		if res != nil {
			t.Errorf("method %v: result returned despite tripped limit", m)
		}
		var le *repro.LimitError
		if !errors.As(err, &le) {
			t.Fatalf("method %v: err = %v, want *repro.LimitError", m, err)
		}
		if le.Resource != guard.ResLR0States || le.Phase != "lr0-states" {
			t.Errorf("method %v: tripped %s in phase %s, want lr0_states in lr0-states",
				m, le.Resource, le.Phase)
		}
	}
}

// TestAnalyzePreCancelledContext: a context that is already done must
// abort every method before any real work — the budget's countdown
// starts at 1, so the very first checkpoint observes the cancellation.
func TestAnalyzePreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := grammars.MustLoad("json")
	for _, m := range allMethods {
		res, err := repro.AnalyzeContext(ctx, g, repro.Options{Method: m})
		if res != nil {
			t.Errorf("method %v: result returned despite cancelled context", m)
		}
		if !errors.Is(err, repro.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Errorf("method %v: err = %v, want match for ErrCanceled and context.Canceled", m, err)
		}
	}
}

// TestAnalyzeCancelMidRun is the acceptance test for prompt
// cancellation: the context is cancelled *at* a checkpoint (via the
// fault-injection hook, so the timing is deterministic), and the abort
// must surface from that same checkpoint — within one checkpoint
// interval — for every method, on a grammar large enough that plenty
// of work remains.
func TestAnalyzeCancelMidRun(t *testing.T) {
	g := grammars.ExprLevels(24)
	for _, m := range allMethods {
		ctx, cancel := context.WithCancel(context.Background())
		restore := guard.InjectFault(&guard.Fault{
			Do: func() error { cancel(); return nil },
		})
		res, err := repro.AnalyzeContext(ctx, g, repro.Options{Method: m})
		restore()
		cancel()
		if res != nil {
			t.Errorf("method %v: result returned despite mid-run cancellation", m)
		}
		if !errors.Is(err, repro.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("method %v: err = %v, want match for ErrCanceled and context.Canceled", m, err)
		}
		var ce *guard.CancelError
		if !errors.As(err, &ce) {
			t.Fatalf("method %v: err = %v, want *guard.CancelError", m, err)
		}
		// The fault fired inside a checkpoint and the same checkpoint
		// reported the cancellation, so the phase names where the abort
		// landed; an empty phase would mean it leaked past the budget.
		if ce.Phase == "" {
			t.Errorf("method %v: cancellation carries no phase", m)
		}
	}
}

// laFingerprint renders every look-ahead set of a result in state and
// reduction order, so two analyses can be compared byte for byte.
func laFingerprint(r *repro.Result) string {
	out := ""
	for q, sets := range r.Lookahead {
		for i, s := range sets {
			out += fmt.Sprintf("%d/%d:%s\n", q, i, s.String())
		}
	}
	return out
}

// TestAnalyzeAllInjectedPanicIsolation is the acceptance test for fault
// containment: a panic injected into exactly one grammar of a batch
// must yield one *InternalError entry while every other grammar's
// result stays byte-identical to a serial, fault-free run.
func TestAnalyzeAllInjectedPanicIsolation(t *testing.T) {
	gs := batchCorpus(t)
	const victim = "pascal"
	victimIdx := -1
	want := make([]string, len(gs))
	for i, g := range gs {
		if g.Name() == victim {
			victimIdx = i
		}
		res, err := repro.Analyze(g, repro.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = laFingerprint(res)
	}
	if victimIdx < 0 {
		t.Fatalf("corpus lacks grammar %q", victim)
	}

	restore := guard.InjectFault(&guard.Fault{
		Owner: victim,
		Do:    func() error { panic("injected fault: poisoned grammar") },
	})
	defer restore()
	results, err := repro.AnalyzeAll(gs, repro.BatchOptions{
		Workers: 4,
		Policy:  repro.BatchCollect,
	})
	if err == nil {
		t.Fatal("poisoned grammar did not fail the batch")
	}
	var ie *repro.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *repro.InternalError", err)
	}
	if ie.Grammar != victim {
		t.Errorf("InternalError.Grammar = %q, want %q", ie.Grammar, victim)
	}
	if len(ie.Stack) == 0 {
		t.Error("InternalError carries no stack trace")
	}
	for i, r := range results {
		if i == victimIdx {
			if r != nil {
				t.Error("poisoned grammar produced a result")
			}
			continue
		}
		if r == nil {
			t.Errorf("%s: result dropped because a sibling panicked", gs[i].Name())
			continue
		}
		if got := laFingerprint(r); got != want[i] {
			t.Errorf("%s: result differs from serial fault-free run", gs[i].Name())
		}
	}
}

// TestAnalyzeAllFailFastStops: under BatchFailFast a poisoned grammar
// cancels the rest of the batch and the batch error is the root cause.
func TestAnalyzeAllFailFastStops(t *testing.T) {
	gs := batchCorpus(t)
	restore := guard.InjectFault(&guard.Fault{
		Owner: gs[0].Name(),
		Do:    func() error { panic("injected fault") },
	})
	defer restore()
	_, err := repro.AnalyzeAll(gs, repro.BatchOptions{
		Workers: 2,
		Policy:  repro.BatchFailFast,
	})
	var ie *repro.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *repro.InternalError", err)
	}
}

// TestLintGoverned: the lint entry point shares the same governance
// surface — limits trip with the same typed errors.
func TestLintGoverned(t *testing.T) {
	g := grammars.MustLoad("pascal")
	rep, err := repro.Lint(g, repro.LintOptions{Limits: repro.Limits{MaxStates: 10}})
	if rep != nil {
		t.Error("report returned despite tripped limit")
	}
	if !errors.Is(err, repro.ErrLimit) {
		t.Fatalf("err = %v, want match for repro.ErrLimit", err)
	}
}

// Lint builds the pipeline only through the last stage its enabled
// passes read, so a limit on a later stage cannot trip it: reads-cycles
// needs no tables and useless no LR(0) automaton.
func TestLintGovernedStopsAtNeededStage(t *testing.T) {
	g := grammars.MustLoad("pascal")
	oneEntry := repro.Limits{MaxTableEntries: 1}
	if _, err := repro.Lint(g, repro.LintOptions{Enable: []string{"reads-cycles"}, Limits: oneEntry}); err != nil {
		t.Errorf("reads-cycles under MaxTableEntries 1: %v", err)
	}
	_, err := repro.Lint(g, repro.LintOptions{Limits: oneEntry})
	var le *repro.LimitError
	if !errors.As(err, &le) || le.Phase != "table-build" {
		t.Errorf("full lint under MaxTableEntries 1: err = %v, want a limit trip in table-build", err)
	}
	if _, err := repro.Lint(g, repro.LintOptions{Enable: []string{"useless"}, Limits: repro.Limits{MaxStates: 1}}); err != nil {
		t.Errorf("useless under MaxStates 1: %v", err)
	}
}
