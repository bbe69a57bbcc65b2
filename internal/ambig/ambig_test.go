package ambig

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/glr"
	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/guard"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
	"repro/internal/obs"
	"repro/internal/treecount"
)

// build assembles the full pipeline for a corpus grammar and returns a
// Walker plus the unresolved conflicts.
func build(t *testing.T, name string, cfg Config) (*Walker, []lalrtable.Conflict) {
	t.Helper()
	g := grammars.MustLoad(name)
	an := grammar.Analyze(g)
	a := lr0.New(g, an)
	sets := core.Compute(a).Sets()
	tables := lalrtable.Build(a, sets)
	var open []lalrtable.Conflict
	for _, c := range tables.Conflicts {
		if c.Resolution == lalrtable.DefaultShift || c.Resolution == lalrtable.DefaultEarlyRule {
			open = append(open, c)
		}
	}
	return New(a, sets, cfg), open
}

func TestDanglingElseProvenAmbiguous(t *testing.T) {
	w, open := build(t, "dangling-else", Config{})
	if len(open) != 1 {
		t.Fatalf("dangling-else: want 1 unresolved conflict, got %d", len(open))
	}
	v := w.Walk(open[0])
	if v.Kind != Ambiguous {
		t.Fatalf("verdict = %v (reason %q), want ambiguous", v.Kind, v.Stats.Reason)
	}
	if v.Derivations < 2 || v.Trees < 2 {
		t.Fatalf("witness not confirmed by both oracles: derivations=%d trees=%d",
			v.Derivations, v.Trees)
	}
	if len(v.DerivA.Prods) == 0 || len(v.DerivB.Prods) == 0 {
		t.Fatalf("missing materialised derivations: %v / %v", v.DerivA, v.DerivB)
	}
	// Independently re-verify the witness against fresh oracle
	// instances: the verdict must hold outside the walker.
	g := grammars.MustLoad("dangling-else")
	an := grammar.Analyze(g)
	a := lr0.New(g, an)
	sets := core.Compute(a).Sets()
	n, err := glr.New(a, sets).Recognize(v.Witness)
	if err != nil || n < 2 {
		t.Fatalf("fresh GLR check: n=%d err=%v", n, err)
	}
	tc, err := treecount.New(g)
	if err != nil {
		t.Fatal(err)
	}
	trees, err := tc.Count(v.Witness)
	if err != nil || trees < 2 {
		t.Fatalf("fresh treecount check: trees=%d err=%v", trees, err)
	}
	if v.Stats.Reason != "witness" {
		t.Fatalf("stats reason = %q, want witness", v.Stats.Reason)
	}
}

func TestNotLALRUnambiguous(t *testing.T) {
	w, open := build(t, "not-lalr", Config{})
	if len(open) == 0 {
		t.Fatal("not-lalr: want unresolved conflicts")
	}
	for _, c := range open {
		v := w.Walk(c)
		if v.Kind != Unambiguous {
			t.Fatalf("state %d: verdict = %v (reason %q), want unambiguous",
				c.State, v.Kind, v.Stats.Reason)
		}
		if v.Stats.Reason != "exhausted" {
			t.Fatalf("state %d: reason = %q, want exhausted", c.State, v.Stats.Reason)
		}
	}
}

func TestTinyBoundsUndecided(t *testing.T) {
	w, open := build(t, "dangling-else", Config{Bounds: Bounds{MaxPairs: 1, MaxLen: 1}})
	if len(open) != 1 {
		t.Fatalf("want 1 conflict, got %d", len(open))
	}
	v := w.Walk(open[0])
	if v.Kind != Undecided {
		t.Fatalf("verdict = %v, want undecided under MaxPairs=1", v.Kind)
	}
	if v.Stats.Reason == "" || v.Stats.Reason == "exhausted" {
		t.Fatalf("reason = %q, want a bound/budget reason", v.Stats.Reason)
	}
}

func TestCanceledBudgetUndecided(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bud := guard.New(ctx, guard.Limits{CheckEvery: 1}, nil)
	w, open := build(t, "dangling-else", Config{Budget: bud})
	v := w.Walk(open[0])
	if v.Kind != Undecided {
		t.Fatalf("verdict = %v, want undecided under canceled budget", v.Kind)
	}
	if !strings.HasPrefix(v.Stats.Reason, "canceled") {
		t.Fatalf("reason = %q, want canceled prefix", v.Stats.Reason)
	}
}

func TestVerdictDeterminism(t *testing.T) {
	for _, name := range []string{"dangling-else", "not-lalr", "expr"} {
		w1, open := build(t, name, Config{})
		w2, _ := build(t, name, Config{})
		for _, c := range open {
			a, b := w1.Walk(c), w2.Walk(c)
			if a.Kind != b.Kind || a.Stats != b.Stats ||
				sentenceEq(a.Witness, b.Witness) == false {
				t.Fatalf("%s state %d: verdicts differ: %+v vs %+v", name, c.State, a, b)
			}
		}
	}
}

// TestCorpusWalksComplete walks every unresolved conflict of every
// corpus grammar under a deadline and requires a verdict (any kind)
// without panic.
func TestCorpusWalksComplete(t *testing.T) {
	for _, e := range grammars.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			g, err := grammars.Load(e.Name)
			if err != nil {
				t.Fatal(err)
			}
			an := grammar.Analyze(g)
			a := lr0.New(g, an)
			sets := core.Compute(a).Sets()
			tables := lalrtable.Build(a, sets)
			bud := guard.New(context.Background(), guard.Limits{
				Deadline: time.Now().Add(5 * time.Second), CheckEvery: 16,
			}, nil)
			rec := obs.New()
			w := New(a, sets, Config{
				Bounds:   Bounds{MaxLen: 8, MaxPairs: 512},
				Budget:   bud,
				Recorder: rec,
			})
			walked, pairs := 0, 0
			for _, c := range tables.Conflicts {
				if c.Resolution != lalrtable.DefaultShift && c.Resolution != lalrtable.DefaultEarlyRule {
					continue
				}
				v := w.Walk(c)
				walked++
				pairs += v.Stats.Pairs
				if v.Kind == Ambiguous && (v.Derivations < 2 || v.Trees < 2) {
					t.Fatalf("state %d: unproven ambiguous verdict %+v", c.State, v)
				}
			}
			if walked > 0 && rec.Counter(obs.CAmbigWalks) != int64(walked) {
				t.Fatalf("walk counter = %d, want %d", rec.Counter(obs.CAmbigWalks), walked)
			}
			if got := rec.Counter(obs.CAmbigPairs); got != int64(pairs) {
				t.Fatalf("pair counter = %d, want the sum of Stats.Pairs %d", got, pairs)
			}
			if pairs > 0 && rec.Counter(obs.CAmbigStackNodes) == 0 {
				t.Fatalf("%d pairs popped but no stack nodes counted", pairs)
			}
		})
	}
}

func sentenceEq(a, b []grammar.Sym) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
