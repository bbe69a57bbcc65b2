package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cliguard"
	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/guard"
)

// corpusMachines is the stats pass over the corpus, ungoverned.
func corpusMachines(t *testing.T) []*machines {
	t.Helper()
	var gs []*grammar.Grammar
	for _, e := range grammars.All() {
		gs = append(gs, grammars.MustLoad(e.Name))
	}
	ms, err := statsPass(gs, &cliguard.Flags{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// The timing-free experiment tables must render all corpus grammars and
// their structural columns.
func TestStructuralTables(t *testing.T) {
	ms := corpusMachines(t)
	out := tableI(ms)
	for _, want := range []string{"pascal", "ada", "LR1 states", "state ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
	out = tableII(ms)
	for _, want := range []string{"includes", "lookback", "inc cyclic"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q:\n%s", want, out)
		}
	}
	out = tableIV(ms)
	for _, want := range []string{"SLR sr/rr", "LALR sr/rr", "LR1 sr/rr", "dangling-else"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table IV missing %q:\n%s", want, out)
		}
	}
	out = tableV(true)
	if !strings.Contains(out, "ratio") || strings.Contains(out, "verification failed") {
		t.Errorf("Table V malformed:\n%s", out)
	}
}

// corpusTableIV is Table IV of EXPERIMENTS.md.  The LR(1) column
// counts the conflicts precedence leaves unresolved, like the SLR and
// LALR columns, so adequacy is monotone along each row.
const corpusTableIV = `== Table-IV: adequacy by method (unresolved conflicts) ==

grammar        LR0 inadequate states  SLR sr/rr  LALR sr/rr  LR1 sr/rr  SLR == LALR?
------------------------------------------------------------------------------------
ada                               45        0/9         0/0        0/0         false
algol                             49        1/0         0/0        0/0         false
assignment                         1        1/0         0/0        0/0         false
csub                              38        8/0         1/0        2/0         false
dangling-else                      1        1/0         1/0        1/0          true
expr                               2        0/0         0/0        0/0          true
expr-prec                          6        0/0         0/0        0/0          true
fortran                           36        0/0         0/0        0/0          true
json                               0        0/0         0/0        0/0          true
lua                               42       3/19         1/1       10/5         false
not-lalr                           1        0/2         0/2        0/0          true
oberon                            33        0/0         0/0        0/0          true
pascal                            24        1/7         1/0        2/0         false
pli                               24        1/1         1/0        3/0         false
sql                               44        0/0         0/0        0/0          true
note: LR(1) entry counts can exceed LALR's on inadequate grammars: state splitting replicates the same conflict
note: adequacy is monotone LR(0) ≤ SLR ≤ LALR ≤ LR(1); SLR suffices for most practical grammars

`

// The corpus Table IV rows are pinned, run end to end through the
// command's flag parsing.
func TestCorpusTables(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-run", "Table-IV"}, &b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != corpusTableIV {
		t.Errorf("Table IV:\n%s\nwant\n%s", got, corpusTableIV)
	}
}

// -run picks one experiment, by its id or by a table's numeral, never
// the experiments whose ids merely contain it.
func TestRunSelectsOneExperiment(t *testing.T) {
	for _, filter := range []string{"Table-I", "II"} {
		var b strings.Builder
		if err := run([]string{"-run", filter}, &b); err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(b.String(), "== "); n != 1 {
			t.Errorf("-run %s printed %d experiments:\n%s", filter, n, b.String())
		}
	}
	var b strings.Builder
	if err := run([]string{"-run", "Table-"}, &b); err == nil {
		t.Errorf("-run Table- matched an experiment:\n%s", b.String())
	}
}

// Grammar files select Tables I, II and IV over those files.
func TestFileMode(t *testing.T) {
	file := filepath.Join(t.TempDir(), "tiny.y")
	if err := os.WriteFile(file, []byte("%token A\n%%\ns : A ;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{file}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"== Table-I:", "== Table-II:", "== Table-IV:"} {
		if strings.Count(out, want) != 1 {
			t.Errorf("file-mode output has %d %q headers:\n%s", strings.Count(out, want), want, out)
		}
	}
	if n := strings.Count(out, "\ntiny "); n != 3 {
		t.Errorf("file-mode output has %d rows for tiny, want 3:\n%s", n, out)
	}
	if strings.Contains(out, "Table-III") || strings.Contains(out, "pascal") {
		t.Errorf("file mode ran a corpus experiment:\n%s", out)
	}
	if err := run([]string{"-run", "III", file}, &b); err == nil {
		t.Error("-run of a timing experiment with grammar files should fail")
	}
}

func TestFileErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"/no/such.y"}, &b); err == nil {
		t.Error("missing file should fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.y")
	if err := os.WriteFile(bad, []byte("not a grammar"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &b); err == nil {
		t.Error("malformed grammar should fail")
	}
	if err := run([]string{"-metrics-out", "-", bad}, &b); err == nil {
		t.Error("-metrics-out with grammar files should fail")
	}
}

// The stats pass runs under the governance flags: -max-states bounds
// the LR(1) machine as well as LR(0) (pascal has 196 LR(0) and 966
// LR(1) states), and -keep-going turns the abort into a warning line
// and leaves the grammar out of the tables.
func TestFileGovernance(t *testing.T) {
	dir := t.TempDir()
	tiny := filepath.Join(dir, "tiny.y")
	big := filepath.Join(dir, "big.y")
	if err := os.WriteFile(tiny, []byte("%token A\n%%\ns : A ;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(big, []byte(grammars.MustLoad("pascal").WriteYacc()), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err := run([]string{"-max-states", "500", tiny, big}, &b)
	var lim *guard.ErrLimitExceeded
	if !errors.As(err, &lim) || lim.Resource != guard.ResLR1States {
		t.Fatalf("err = %v, want an LR(1) state limit trip", err)
	}
	b.Reset()
	if err := run([]string{"-max-states", "500", "-keep-going", "-run", "Table-I", tiny, big}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "warning: continuing past failures: ") || !strings.Contains(out, "\ntiny ") ||
		strings.Contains(out, "\nbig ") {
		t.Errorf("keep-going output:\n%s", out)
	}
	ctxErr := run([]string{"-timeout", "1ns", tiny}, &b)
	if !errors.Is(ctxErr, context.DeadlineExceeded) {
		t.Errorf("-timeout 1ns: err = %v, want the deadline", ctxErr)
	}
}

// The timing experiments run end-to-end in quick mode.  They are slow,
// so -short skips them.
func TestTimedExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweeps skipped in -short mode")
	}
	out := tableIII(true)
	if !strings.Contains(out, "prop/DP") || !strings.Contains(out, "corpus totals") {
		t.Errorf("Table III malformed:\n%s", out)
	}
	out = figScaling(true)
	if !strings.Contains(out, "expr-levels") {
		t.Errorf("Fig scaling malformed:\n%s", out)
	}
	out = figDigraph(true)
	if !strings.Contains(out, "anti-aligned") {
		t.Errorf("Fig digraph malformed:\n%s", out)
	}
}

func TestMeasureReturnsPositive(t *testing.T) {
	d := measure(func() {})
	if d < 0 {
		t.Errorf("measure returned %v", d)
	}
}

// The -metrics-out document must be valid, schema-stamped JSON with
// relation sizes, Digraph SCC statistics, per-phase timings and the
// cost-model counters for every corpus grammar.
func TestCollectMetrics(t *testing.T) {
	doc, err := collectMetrics(true, 1, &cliguard.Flags{})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != benchSchema || doc.Mode != "quick" {
		t.Errorf("schema/mode = %q/%q", doc.Schema, doc.Mode)
	}
	if len(doc.Grammars) < 10 {
		t.Fatalf("only %d grammars in metrics", len(doc.Grammars))
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back benchMetrics
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("metrics do not round-trip: %v", err)
	}
	for _, gm := range doc.Grammars {
		if gm.Fingerprint == "" {
			t.Errorf("%s: missing fingerprint", gm.Grammar)
		}
		if gm.LR0States == 0 || gm.NtTransitions == 0 {
			t.Errorf("%s: empty machine stats", gm.Grammar)
		}
		if gm.Digraph.IncludesSCCs == 0 {
			t.Errorf("%s: no SCC stats", gm.Grammar)
		}
		for _, k := range []string{"lr0", "dp", "slr", "prop"} {
			if gm.TimingsNs[k] <= 0 {
				t.Errorf("%s: missing timing %q", gm.Grammar, k)
			}
		}
		if len(gm.Phases) == 0 {
			t.Errorf("%s: no phase tree", gm.Grammar)
		}
		// The acceptance bar: at least 6 distinct counters, relation
		// edges, unions and SCC count among them.
		if len(gm.Counters) < 6 {
			t.Errorf("%s: only %d counters", gm.Grammar, len(gm.Counters))
		}
		for _, c := range []string{"bitset_unions", "sccs", "nt_transitions"} {
			if gm.Counters[c] == 0 {
				t.Errorf("%s: counter %q missing or zero", gm.Grammar, c)
			}
		}
		// relation_edges can legitimately be 0 only when the grammar has
		// no reads or includes edges at all.
		if gm.Counters["relation_edges"] == 0 &&
			gm.Relations.ReadsEdges+gm.Relations.IncludesEdges > 0 {
			t.Errorf("%s: relation_edges counter missing", gm.Grammar)
		}
	}
}

// -parallel must never change what the metrics document says, only how
// fast it is collected: same grammar order, same structural numbers and
// counters (timing fields are measured, so they are not compared).
func TestCollectMetricsParallelDeterministic(t *testing.T) {
	serial, err := collectMetrics(true, 1, &cliguard.Flags{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := collectMetrics(true, 4, &cliguard.Flags{})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Grammars) != len(serial.Grammars) {
		t.Fatalf("grammar counts differ: %d vs %d", len(par.Grammars), len(serial.Grammars))
	}
	for i := range serial.Grammars {
		s, p := serial.Grammars[i], par.Grammars[i]
		if p.Grammar != s.Grammar {
			t.Errorf("slot %d: grammar %q, want %q (order must be corpus order)", i, p.Grammar, s.Grammar)
		}
		if p.LR0States != s.LR0States || p.NtTransitions != s.NtTransitions ||
			p.Relations != s.Relations || p.Digraph != s.Digraph {
			t.Errorf("%s: structural metrics differ between serial and parallel collection", s.Grammar)
		}
		for _, c := range []string{"bitset_unions", "sccs", "relation_edges"} {
			if p.Counters[c] != s.Counters[c] {
				t.Errorf("%s: counter %s = %d, want %d", s.Grammar, c, p.Counters[c], s.Counters[c])
			}
		}
	}
}

// Error stubs (limit-aborted grammars under -keep-going) must still
// carry the content fingerprint, so failed runs stay joinable with
// successful runs of the same grammars by content address.
func TestMetricsErrorStubsCarryFingerprint(t *testing.T) {
	doc, err := collectMetrics(true, 1, &cliguard.Flags{MaxStates: 2, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	aborted := 0
	for i, gm := range doc.Grammars {
		if gm.Error == "" {
			continue
		}
		aborted++
		if gm.Fingerprint == "" {
			t.Errorf("%s: error stub has no fingerprint", gm.Grammar)
		}
		want := cache.Fingerprint(grammars.All()[i].Src, "dp")
		if gm.Fingerprint != want {
			t.Errorf("%s: stub fingerprint %s, want %s", gm.Grammar, gm.Fingerprint, want)
		}
	}
	if aborted == 0 {
		t.Fatal("MaxStates=2 aborted no grammars; the stub path went untested")
	}
}

func TestEmitMetricsWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := emitMetrics(path, true, 1, &cliguard.Flags{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchMetrics
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("emitted file is not valid JSON: %v", err)
	}
	if doc.Schema != benchSchema {
		t.Errorf("schema = %q", doc.Schema)
	}
}
