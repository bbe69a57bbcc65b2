package export

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
	"repro/internal/slr"
)

var update = flag.Bool("update", false, "rewrite the export golden file")

func TestBuildAndRoundTrip(t *testing.T) {
	g := grammar.MustParse("t.y", `
%token IF THEN ELSE other cond
%%
stmt : IF cond THEN stmt | IF cond THEN stmt ELSE stmt | other ;
`)
	a := lr0.New(g, nil)
	dp := core.Compute(a)
	tbl := lalrtable.Build(a, dp.Sets())
	data := AppendAnalysis(nil, 0, a, dp.Sets(), tbl, dp, "deremer-pennello")
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Grammar.Name != "t" || back.Grammar.Start != "stmt" {
		t.Errorf("grammar info = %+v", back.Grammar)
	}
	if len(back.States) != len(a.States) {
		t.Errorf("states = %d, want %d", len(back.States), len(a.States))
	}
	if back.Adequate {
		t.Error("dangling else is not adequate")
	}
	if back.Relations == nil || back.Relations.LookbackEdges == 0 {
		t.Errorf("relations = %+v", back.Relations)
	}
	unresolved := 0
	for _, c := range back.Conflicts {
		if c.Unresolved {
			unresolved++
			if c.Kind != "shift/reduce" || c.Terminal != "ELSE" {
				t.Errorf("conflict = %+v", c)
			}
		}
	}
	if unresolved != 1 {
		t.Errorf("unresolved = %d, want 1", unresolved)
	}
	// Look-ahead sets present on reductions.
	found := false
	for _, s := range back.States {
		for _, red := range s.Reductions {
			if strings.HasPrefix(red.Production, "stmt →") && len(red.Lookahead) > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no reduction lookaheads exported")
	}
}

// buildDanglingElse runs the full pipeline from source text so every
// stage that could perturb ordering (parsing, LR(0) interning, the
// relation traversals, table build) is exercised fresh.
func buildDanglingElse() ([]byte, error) {
	g := grammar.MustParse("golden.y", `
%token IF THEN ELSE other cond
%%
stmt : IF cond THEN stmt | IF cond THEN stmt ELSE stmt | other ;
`)
	a := lr0.New(g, nil)
	dp := core.Compute(a)
	tbl := lalrtable.Build(a, dp.Sets())
	return AppendAnalysis(nil, 0, a, dp.Sets(), tbl, dp, "deremer-pennello"), nil
}

// TestGoldenByteDeterministic pins the exact encoded bytes of a report
// against a committed golden file and asserts that two independent
// pipeline runs encode identically — the invariant that lets the lalrd
// cache serve stored bodies as if freshly computed.  Regenerate with
// go test ./internal/export -run TestGolden -update.
func TestGoldenByteDeterministic(t *testing.T) {
	first, err := buildDanglingElse()
	if err != nil {
		t.Fatal(err)
	}
	second, err := buildDanglingElse()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("two builds of the same grammar encode differently")
	}
	golden := filepath.Join("testdata", "dangling_else.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, first, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(first, want) {
		t.Errorf("report bytes drifted from %s (len %d vs %d); run with -update after an intentional schema change",
			golden, len(first), len(want))
	}
}

func TestBuildWithoutDP(t *testing.T) {
	g := grammar.MustParse("t.y", "%token A\n%%\ns : A ;\n")
	a := lr0.New(g, nil)
	sets := slr.Compute(a)
	tbl := lalrtable.Build(a, sets)
	r := Build(a, sets, tbl, nil, "slr")
	if r.Relations != nil {
		t.Error("relations should be absent for SLR")
	}
	if !r.Adequate {
		t.Error("trivial grammar should be adequate")
	}
}
