package ambig

// Verdict golden: every walk's full outcome — kind, Stats, witness,
// oracle counts and both derivations — over the corpus grammars and
// their structural mutants at three bound sets, plus a pre-cancelled
// budget on the corpus.  The walk's data structures may change; its
// verdicts may not, so any rewrite must reproduce this file byte for
// byte.  Regenerate with `go test ./internal/ambig -run
// TestVerdictGolden -update` only for a deliberate verdict change.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/guard"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
)

var update = flag.Bool("update", false, "rewrite testdata/verdicts.golden")

const goldenPath = "testdata/verdicts.golden"

// goldenBounds are the bound sets every golden grammar is walked at:
// the defaults lint uses, the fuzz target's, and a tiny set that makes
// every cap fire somewhere.
var goldenBounds = []struct {
	name string
	b    Bounds
}{
	{"default", Bounds{}},
	{"fuzz", Bounds{MaxLen: 6, MaxPairs: 128, MaxSteps: 128, MaxContexts: 8}},
	{"tiny", Bounds{MaxLen: 2, MaxPairs: 24, MaxSteps: 6, MaxContexts: 2, MaxContextEdges: 1}},
}

// goldenGrammar is one named grammar source of the golden set.
type goldenGrammar struct {
	name, src string
}

// goldenGrammars lists the corpus, then grammars.Mutations seeds 1–6
// (six mutants each) of every corpus grammar, duplicates dropped.
func goldenGrammars() []goldenGrammar {
	var out []goldenGrammar
	seen := map[string]bool{}
	for _, e := range grammars.All() {
		out = append(out, goldenGrammar{e.Name, e.Src})
	}
	for _, e := range grammars.All() {
		for seed := int64(1); seed <= 6; seed++ {
			for i, m := range grammars.Mutations(e.Src, seed, 6) {
				if seen[m] {
					continue
				}
				seen[m] = true
				out = append(out, goldenGrammar{fmt.Sprintf("%s~%d.%d", e.Name, seed, i), m})
			}
		}
	}
	return out
}

// openConflicts builds the pipeline for src and returns the automaton,
// its look-ahead sets and the conflicts lint walks.
func openConflicts(t testing.TB, name, src string) (*lr0.Automaton, *core.Result, []lalrtable.Conflict) {
	t.Helper()
	g, err := grammar.Parse(name+".y", src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	a := lr0.New(g, grammar.Analyze(g))
	dp := core.Compute(a)
	var open []lalrtable.Conflict
	for _, c := range lalrtable.Build(a, dp.Sets()).Conflicts {
		if c.Resolution == lalrtable.DefaultShift || c.Resolution == lalrtable.DefaultEarlyRule {
			open = append(open, c)
		}
	}
	return a, dp, open
}

// goldenLine renders one verdict.
func goldenLine(g *grammar.Grammar, label, bounds string, v Verdict) string {
	var b strings.Builder
	st := v.Stats
	fmt.Fprintf(&b, "%s %s s%d %s %v ctx=%d pairs=%d frontier=%d cand=%d len=%d reason=%q",
		label, bounds, v.Conflict.State, g.SymName(v.Conflict.Terminal), v.Kind,
		st.Contexts, st.Pairs, st.Frontier, st.Candidates, st.MaxLen, st.Reason)
	if v.Kind == Ambiguous {
		fmt.Fprintf(&b, " witness=%q derivs=%d trees=%d a=%v b=%v",
			sentence(g, v.Witness), v.Derivations, v.Trees, v.DerivA.Prods, v.DerivB.Prods)
	}
	b.WriteByte('\n')
	return b.String()
}

// goldenReport walks every open conflict of every golden grammar.  In
// short mode (-short, or under the race detector) only the corpus
// grammars are walked, and the result is compared against their lines
// of the golden.
func goldenReport(t testing.TB, short bool) string {
	var out strings.Builder
	gs := goldenGrammars()
	if short {
		gs = gs[:len(grammars.All())]
	}
	for _, gg := range gs {
		a, dp, open := openConflicts(t, gg.name, gg.src)
		for _, bs := range goldenBounds {
			w := New(a, dp.Sets(), Config{Bounds: bs.b})
			for _, c := range open {
				out.WriteString(goldenLine(a.G, gg.name, bs.name, w.Walk(c)))
			}
		}
	}
	// A pre-cancelled budget stops every corpus walk at its first
	// checkpoint, pinning where that checkpoint sits.
	for _, e := range grammars.All() {
		a, dp, open := openConflicts(t, e.Name, e.Src)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		w := New(a, dp.Sets(), Config{Budget: guard.New(ctx, guard.Limits{CheckEvery: 1}, nil)})
		for _, c := range open {
			out.WriteString(goldenLine(a.G, e.Name, "canceled", w.Walk(c)))
		}
	}
	return out.String()
}

func TestVerdictGolden(t *testing.T) {
	short := (testing.Short() || raceEnabled) && !*update
	got := goldenReport(t, short)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	want := string(raw)
	if short {
		want = shortGolden(want)
	}
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("verdict %d differs from golden:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("verdict count differs from golden: got %d lines, want %d", len(gl), len(wl))
}

// shortGolden keeps the golden lines of unmutated corpus grammars.
func shortGolden(golden string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(golden, "\n") {
		if label, _, ok := strings.Cut(line, " "); ok && !strings.Contains(label, "~") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestVerdictGoldenCoversStopReasons keeps the golden meaningful: every
// way a walk can stop must appear in it at least once.  The one
// exception is "conflict state unreachable", which no conflict of a
// built table can produce: every state but the accept state is reached
// without an $end edge, and the accept state has no conflicts.
func TestVerdictGoldenCoversStopReasons(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, reason := range []string{
		`reason="witness"`, `reason="exhausted"`, `reason="pair budget"`,
		`reason="length bound"`, `reason="context bound"`, `reason="truncated"`,
		`reason="canceled: `, `reason="cyclic grammar: tree oracle unavailable"`,
	} {
		if !strings.Contains(string(raw), reason) {
			t.Errorf("golden has no walk with %s", reason)
		}
	}
}
