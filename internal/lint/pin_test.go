package lint

// Lint pin: one digest per grammar of the full lint report — text,
// repro-lint/1 JSON and SARIF — over the corpus plus the reads-cycle
// grammar (no corpus grammar has a cyclic reads relation) and their
// grammars.Mutations seeds 1–6 (six mutants each), with the ambiguity
// pass disabled (its verdicts are pinned by internal/ambig's verdict
// golden).  The whole text runs to megabytes; a digest per grammar
// keeps the file small and still names the grammar whose report
// changed.  Regenerate with
// `go test ./internal/lint -run TestLintPin -update` only for a
// deliberate report change.

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/pin.golden")

const pinPath = "testdata/pin.golden"

// pinLine lints one grammar and renders its digest line.
func pinLine(t *testing.T, name, src string) string {
	t.Helper()
	g, err := grammar.Parse(name+".y", src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rep, err := Run(g, Options{Disable: []string{"ambiguity"}})
	if err != nil {
		return fmt.Sprintf("%s error %q\n", name, err)
	}
	var b bytes.Buffer
	reports, gs := []*Report{rep}, []*grammar.Grammar{g}
	if err := WriteText(&b, reports); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, reports, gs); err != nil {
		t.Fatal(err)
	}
	if err := WriteSARIF(&b, reports, gs); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s diags=%d sha256=%x\n", name, len(rep.Diagnostics), sha256.Sum256(b.Bytes()))
}

func TestLintPin(t *testing.T) {
	entries := append(grammars.All(), grammars.Entry{Name: "readscycle", Src: readsCycleSrc})
	var got strings.Builder
	seen := map[string]bool{}
	for _, e := range entries {
		got.WriteString(pinLine(t, e.Name, e.Src))
	}
	for _, e := range entries {
		for seed := int64(1); seed <= 6; seed++ {
			for i, m := range grammars.Mutations(e.Src, seed, 6) {
				if seen[m] {
					continue
				}
				seen[m] = true
				got.WriteString(pinLine(t, fmt.Sprintf("%s~%d.%d", e.Name, seed, i), m))
			}
		}
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(pinPath)
	if err != nil {
		t.Fatalf("missing pin (run with -update): %v", err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(raw), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("report %d differs from the pin:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("report count differs from the pin: got %d lines, want %d", len(gl), len(wl))
	}
}

// TestAmbigWorkPin pins the ambiguity walks' work on the corpus at the
// default bounds: the walks, witnesses, popped configurations and
// interned stack nodes each grammar's lint records.  Verdicts alone
// would not notice a successor step that explores more or less of the
// SR-automaton on the way to the same answer.
func TestAmbigWorkPin(t *testing.T) {
	type work struct{ walks, witnesses, pairs, nodes int64 }
	want := map[string]work{
		"csub":          {1, 0, 0, 225},
		"dangling-else": {1, 1, 7, 45},
		"lua":           {2, 1, 3781, 60394},
		"not-lalr":      {2, 0, 0, 22},
		"pascal":        {1, 0, 0, 54},
		"pli":           {1, 1, 239, 1457},
	}
	for _, e := range grammars.All() {
		rec := obs.New()
		if _, err := Run(grammars.MustLoad(e.Name), Options{Enable: []string{"ambiguity"}, Recorder: rec}); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		got := work{
			rec.Counter(obs.CAmbigWalks), rec.Counter(obs.CAmbigWitnesses),
			rec.Counter(obs.CAmbigPairs), rec.Counter(obs.CAmbigStackNodes),
		}
		if got != want[e.Name] {
			t.Errorf("%s: ambiguity walks/witnesses/pairs/stack nodes = %v, want %v", e.Name, got, want[e.Name])
		}
	}
}
