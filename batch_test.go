package repro_test

import (
	"context"
	"errors"
	"testing"

	"repro"
	"repro/internal/grammars"
)

func batchCorpus(t *testing.T) []*repro.Grammar {
	t.Helper()
	var gs []*repro.Grammar
	for _, e := range grammars.All() {
		gs = append(gs, grammars.MustLoad(e.Name))
	}
	return gs
}

// TestAnalyzeAllEqualsSerial: batch analysis must be indistinguishable
// from serial Analyze calls — same look-ahead sets, same table
// adequacy, positionally matched to the input — at any worker count.
func TestAnalyzeAllEqualsSerial(t *testing.T) {
	gs := batchCorpus(t)
	want := make([]*repro.Result, len(gs))
	for i, g := range gs {
		res, err := repro.Analyze(g, repro.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	for _, workers := range []int{1, 2, 4, 8} {
		results, err := repro.AnalyzeAll(gs, repro.BatchOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != len(gs) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(results), len(gs))
		}
		for i, g := range gs {
			got, want := results[i], want[i]
			if got == nil || got.Grammar != g {
				t.Fatalf("workers=%d: result %d does not belong to input %d", workers, i, i)
			}
			if len(got.Lookahead) != len(want.Lookahead) {
				t.Fatalf("workers=%d: %s: state counts differ", workers, g.Name())
			}
			for q := range want.Lookahead {
				for r := range want.Lookahead[q] {
					if !got.Lookahead[q][r].Equal(want.Lookahead[q][r]) {
						t.Errorf("workers=%d: %s: LA[%d][%d] = %v, want %v", workers, g.Name(), q, r,
							got.Lookahead[q][r], want.Lookahead[q][r])
					}
				}
			}
			gsr, grr := got.Tables.Unresolved()
			wsr, wrr := want.Tables.Unresolved()
			if gsr != wsr || grr != wrr {
				t.Errorf("workers=%d: %s: conflicts %d/%d, want %d/%d", workers, g.Name(), gsr, grr, wsr, wrr)
			}
		}
	}
}

// TestAnalyzeAllMergedRecorder: the batch recorder's counters must equal
// a serial run's with the same single recorder, and each grammar's
// phase tree must arrive as one root span.
func TestAnalyzeAllMergedRecorder(t *testing.T) {
	gs := batchCorpus(t)

	serial := repro.NewRecorder()
	for _, g := range gs {
		if _, err := repro.Analyze(g, repro.Options{Recorder: serial}); err != nil {
			t.Fatal(err)
		}
	}

	batch := repro.NewRecorder()
	if _, err := repro.AnalyzeAll(gs, repro.BatchOptions{
		Options: repro.Options{Recorder: batch},
		Workers: 3,
	}); err != nil {
		t.Fatal(err)
	}

	got, want := batch.Snapshot(), serial.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("counter sets differ:\ngot %v\nwant %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("counter %s = %d, want %d", want[i].Name, got[i].Value, want[i].Value)
		}
	}
	if got := len(batch.ExportData().Phases); got != len(gs) {
		t.Errorf("merged recorder has %d root spans, want one per grammar (%d)", got, len(gs))
	}
}

func TestAnalyzeAllCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gs := batchCorpus(t)
	results, err := repro.AnalyzeAll(gs, repro.BatchOptions{Workers: 2, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if r != nil {
			t.Errorf("result %d present despite pre-cancelled context", i)
		}
	}
}

func TestAnalyzeAllPropagatesError(t *testing.T) {
	gs := []*repro.Grammar{grammars.MustLoad("json"), nil}
	results, err := repro.AnalyzeAll(gs, repro.BatchOptions{Workers: 2})
	if err == nil {
		t.Fatal("nil grammar did not fail the batch")
	}
	if results[0] == nil {
		t.Error("healthy grammar's result dropped because a sibling failed")
	}
}

// TestLintAllEqualsSerial: batch linting is positionally deterministic
// and identical to serial repro.Lint calls.
func TestLintAllEqualsSerial(t *testing.T) {
	gs := batchCorpus(t)
	batch, err := repro.LintAll(gs, repro.LintBatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range gs {
		serial, err := repro.Lint(g, repro.LintOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Grammar != g.Name() {
			t.Fatalf("report %d is for %q, want %q", i, batch[i].Grammar, g.Name())
		}
		if len(batch[i].Diagnostics) != len(serial.Diagnostics) {
			t.Errorf("%s: batch %d diagnostics, serial %d", g.Name(),
				len(batch[i].Diagnostics), len(serial.Diagnostics))
			continue
		}
		for j, d := range batch[i].Diagnostics {
			s := serial.Diagnostics[j]
			if d.Code != s.Code || d.Message != s.Message || d.Severity != s.Severity {
				t.Errorf("%s diag %d: batch %+v != serial %+v", g.Name(), j, d, s)
			}
		}
	}
	if _, err := repro.LintAll(gs, repro.LintBatchOptions{
		Budgets: []*repro.LintBudget{{}},
	}); err == nil {
		t.Error("mismatched Budgets length should error")
	}
}

// TestLintPublicAPI: the repro.Lint surface carries codes, severities
// and the error-level verdicts through the aliases.
func TestLintPublicAPI(t *testing.T) {
	g, err := repro.LoadGrammar("cycle.y", "%%\ns : a ;\na : s | ;\n")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repro.Lint(g, repro.LintOptions{MinSeverity: repro.LintError})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasErrors() {
		t.Fatalf("derivation cycle should produce an error-severity finding: %+v", rep.Diagnostics)
	}
}
