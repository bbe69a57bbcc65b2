package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runOK runs the CLI and fails the test on usage/I/O errors;
// errFindings (error-severity diagnostics) is returned to the caller.
func runOK(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out, errw bytes.Buffer
	err := run(args, &out, &errw)
	if err != nil && !errors.Is(err, errFindings) {
		t.Fatalf("run(%v): %v\nstderr:\n%s", args, err, errw.String())
	}
	return out.String(), err
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s: output differs from golden\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// Golden coverage: one clean corpus grammar (expr — no conflicts) and
// one with conflicts (dangling-else), in text and SARIF form, each
// asserted byte-identical at -parallel 1 and -parallel 4.
func TestGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"expr.txt", []string{"-corpus", "expr", "-format", "text"}},
		{"expr.sarif", []string{"-corpus", "expr", "-format", "sarif"}},
		{"dangling-else.txt", []string{"-corpus", "dangling-else", "-format", "text"}},
		{"dangling-else.sarif", []string{"-corpus", "dangling-else", "-format", "sarif"}},
		{"corpus-pair.txt", []string{"-corpus", "expr,dangling-else", "-format", "text"}},
		// Ambiguity verdicts: dangling-else proves GL040 (with witness),
		// not-lalr proves GL041; all three formats carry the witness —
		// JSON as a "witness" field, SARIF as a region snippet.
		{"ambig-pair.txt", []string{"-corpus", "dangling-else,not-lalr", "-format", "text"}},
		{"ambig-pair.json", []string{"-corpus", "dangling-else,not-lalr", "-format", "json"}},
		{"ambig-pair.sarif", []string{"-corpus", "dangling-else,not-lalr", "-format", "sarif"}},
		// Starving the walk of pair configurations forces GL042.
		{"ambig-undecided.txt", []string{"-corpus", "dangling-else", "-format", "text", "-ambig-pairs", "1"}},
		// The expensive walks: lua's GL040 witness and the GL042
		// context-bound verdicts of lua, csub and pascal.
		{"ambig-heavy.txt", []string{"-corpus", "lua,csub,pascal", "-format", "text"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			serial, err1 := runOK(t, append([]string{"-parallel", "1"}, c.args...)...)
			par, err4 := runOK(t, append([]string{"-parallel", "4"}, c.args...)...)
			if serial != par {
				t.Fatalf("-parallel 1 and -parallel 4 outputs differ:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
			}
			if (err1 == nil) != (err4 == nil) {
				t.Fatalf("exit status differs across -parallel: %v vs %v", err1, err4)
			}
			checkGolden(t, c.golden, serial)
		})
	}
}

func TestWholeCorpusParallelDeterminism(t *testing.T) {
	serial, _ := runOK(t, "-parallel", "1")
	par, _ := runOK(t, "-parallel", "4")
	if serial != par {
		t.Fatal("whole-corpus output differs between -parallel 1 and -parallel 4")
	}
	if serial == "" {
		t.Fatal("whole-corpus lint produced no output")
	}
}

func TestCorpusGateIsClean(t *testing.T) {
	// The `make lint-corpus` contract: registry budgets keep the corpus
	// free of error-severity findings under -Werror -severity=error.
	out, err := runOK(t, "-Werror", "-severity=error")
	if err != nil {
		t.Fatalf("corpus gate reported errors:\n%s", out)
	}
	if out != "" {
		t.Fatalf("corpus gate should print nothing, got:\n%s", out)
	}
}

func TestReadsCycleFileReportsNotLRk(t *testing.T) {
	out, err := runOK(t, filepath.Join("testdata", "readscycle.y"))
	if !errors.Is(err, errFindings) {
		t.Fatalf("reads-cycle grammar should exit with findings, got err=%v", err)
	}
	if !strings.Contains(out, "GL020") || !strings.Contains(out, "not LR(k)") {
		t.Errorf("missing GL020 / not-LR(k) verdict:\n%s", out)
	}
	if !strings.Contains(out, "cycle: ") || !strings.Contains(out, " reads ") {
		t.Errorf("missing concrete cycle path:\n%s", out)
	}
}

func TestJSONFormatAndFlags(t *testing.T) {
	out, _ := runOK(t, "-corpus", "expr", "-format", "json")
	if !strings.Contains(out, `"schema": "repro-lint/1"`) {
		t.Errorf("JSON output missing schema marker:\n%s", out)
	}
	out, _ = runOK(t, "-corpus", "expr", "-format", "json", "-enable", "unit-chains")
	if !strings.Contains(out, `"passes": [`) || strings.Contains(out, `"conflicts"`) {
		t.Errorf("-enable should restrict the pass list:\n%s", out)
	}
	var buf bytes.Buffer
	if err := run([]string{"-corpus", "expr", "-format", "nope"}, &buf, &buf); err == nil {
		t.Error("bad -format should be a usage error")
	}
	if err := run([]string{"-corpus", "nope"}, &buf, &buf); err == nil {
		t.Error("unknown corpus grammar should be a usage error")
	}
}

func TestListFlag(t *testing.T) {
	out, _ := runOK(t, "-list")
	for _, want := range []string{"reads-cycles", "GL020", "conflicts", "GL030"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestStatsGoToStderr(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-corpus", "expr", "-stats"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "lint timings:") {
		t.Error("-stats must not pollute stdout")
	}
	es := errw.String()
	if !strings.Contains(es, "lint-pass-reads-cycles") || !strings.Contains(es, "lint-facts") {
		t.Errorf("stderr should carry per-pass timings, got:\n%s", es)
	}
	// An ambiguity walk reports its configurations and interned stack
	// nodes beside the walk count.
	errw.Reset()
	if err := run([]string{"-corpus", "dangling-else", "-stats"}, &out, &errw); err != nil && !errors.Is(err, errFindings) {
		t.Fatal(err)
	}
	for _, want := range []string{"ambig_walks", "ambig_pairs", "ambig_stack_nodes"} {
		if !strings.Contains(errw.String(), want) {
			t.Errorf("-stats on dangling-else should count %s, got:\n%s", want, errw.String())
		}
	}
}

// TestCSubAllFormats pins the acceptance criterion: the C-subset
// grammar emits stable diagnostic codes in text, JSON and SARIF alike.
func TestCSubAllFormats(t *testing.T) {
	wantCodes := []string{"GL011", "GL012", "GL021", "GL030"}
	for _, format := range []string{"text", "json", "sarif"} {
		out, err := runOK(t, "-corpus", "csub", "-format", format)
		if err != nil {
			t.Fatalf("%s: csub is within budget, must not exit with findings: %v", format, err)
		}
		for _, code := range wantCodes {
			if !strings.Contains(out, code) {
				t.Errorf("%s output missing code %s", format, code)
			}
		}
	}
}
