package lint

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
	"repro/internal/obs"
)

// findAll returns the diagnostics with the given code.
func findAll(r *Report, code Code) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

func mustRun(t *testing.T, g *grammar.Grammar, opts Options) *Report {
	t.Helper()
	rep, err := Run(g, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

// The injected reads-cycle grammar: the x y tail of s is nullable, so
// (q, y) reads (q', x) reads (q, y) — a genuine 2-cycle, hand-checked.
const readsCycleSrc = `
%token X Y
%%
s : x y s | ;
x : X | ;
y : Y | ;
`

func TestReadsCycleReportedAsNotLRk(t *testing.T) {
	g := grammar.MustParse("readscycle.y", readsCycleSrc)
	rep := mustRun(t, g, Options{})

	ds := findAll(rep, CodeReadsCycle)
	if len(ds) == 0 {
		t.Fatalf("no GL020 diagnostic; got %+v", rep.Diagnostics)
	}
	d := ds[0]
	if d.Severity != Error {
		t.Errorf("GL020 severity = %v, want Error", d.Severity)
	}
	if !strings.Contains(d.Message, "not LR(k)") {
		t.Errorf("GL020 message %q lacks the not-LR(k) verdict", d.Message)
	}
	var cycle string
	for _, rel := range d.Related {
		if strings.HasPrefix(rel, "cycle: ") {
			cycle = rel
		}
	}
	if cycle == "" {
		t.Fatalf("GL020 has no cycle path line: %v", d.Related)
	}
	// The path must be a closed walk through named transitions.
	if strings.Count(cycle, " reads ") < 2 {
		t.Errorf("cycle path %q should contain at least two reads steps", cycle)
	}
	if !strings.Contains(cycle, ", x)") || !strings.Contains(cycle, ", y)") {
		t.Errorf("cycle path %q should pass through both x and y transitions", cycle)
	}
	if d.State < 0 || d.Sym == grammar.NoSym {
		t.Errorf("GL020 should carry a state+symbol locus, got state=%d sym=%d", d.State, d.Sym)
	}
}

func TestDerivationCycle(t *testing.T) {
	g := grammar.MustParse("cycle.y", `
%%
s : a ;
a : b ;
b : a | 'x' ;
`)
	rep := mustRun(t, g, Options{})
	ds := findAll(rep, CodeDerivationCycle)
	if len(ds) != 1 {
		t.Fatalf("want 1 GL010, got %d: %+v", len(ds), rep.Diagnostics)
	}
	if ds[0].Severity != Error {
		t.Errorf("GL010 severity = %v, want Error", ds[0].Severity)
	}
	if !strings.Contains(ds[0].Message, "⇒") {
		t.Errorf("GL010 message %q should print the derivation chain", ds[0].Message)
	}
	// The unit-chain pass must not loop or misreport on the unit cycle.
	if ds := findAll(rep, CodeUnitChain); len(ds) != 0 {
		t.Errorf("unit cycle misreported as chain: %+v", ds)
	}
}

func TestUselessAndUnusedSymbols(t *testing.T) {
	g := grammar.MustParse("useless.y", `
%token A B UNUSED
%%
s : A ;
dead : B dead ;
orphan : A ;
`)
	rep := mustRun(t, g, Options{})

	if ds := findAll(rep, CodeUnproductive); len(ds) != 1 || !strings.Contains(ds[0].Message, "dead") {
		t.Errorf("GL001: want exactly one for dead, got %+v", ds)
	}
	unreachable := findAll(rep, CodeUnreachable)
	var names []string
	for _, d := range unreachable {
		names = append(names, g.SymName(d.Sym))
	}
	// orphan is productive but unreachable; B occurs only in dead's
	// unproductive production, so it is unreachable-but-used.
	want := map[string]bool{"orphan": true, "B": true}
	if len(unreachable) != len(want) {
		t.Errorf("GL002: want %v, got %v", want, names)
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("GL002 reported unexpected symbol %s", n)
		}
	}
	if ds := findAll(rep, CodeUnusedToken); len(ds) != 1 || g.SymName(ds[0].Sym) != "UNUSED" {
		t.Errorf("GL003: want exactly UNUSED, got %+v", ds)
	}
}

func TestUnproductiveStartIsError(t *testing.T) {
	g := grammar.MustParse("nostart.y", `
%token A
%%
s : s A ;
`)
	rep := mustRun(t, g, Options{Enable: []string{"useless"}})
	ds := findAll(rep, CodeUnproductive)
	if len(ds) != 1 || ds[0].Severity != Error {
		t.Fatalf("unproductive start should be a single Error, got %+v", ds)
	}
}

func TestUnitChain(t *testing.T) {
	g := grammar.MustParse("unit.y", `
%token ID
%%
e : t ;
t : f ;
f : ID ;
`)
	rep := mustRun(t, g, Options{})
	ds := findAll(rep, CodeUnitChain)
	if len(ds) != 1 {
		t.Fatalf("want 1 GL012, got %+v", rep.Diagnostics)
	}
	if !strings.Contains(ds[0].Message, "e → t → f") {
		t.Errorf("GL012 message %q should spell the chain e → t → f", ds[0].Message)
	}
	if ds[0].Severity != Info {
		t.Errorf("GL012 severity = %v, want Info", ds[0].Severity)
	}
}

func TestLeftRecursionInventory(t *testing.T) {
	g := grammar.MustParse("lrec.y", `
%%
s : s 'a' | 'b' ;
`)
	rep := mustRun(t, g, Options{})
	ds := findAll(rep, CodeLeftRecursion)
	if len(ds) != 1 || g.SymName(ds[0].Sym) != "s" {
		t.Fatalf("want GL011 for s, got %+v", ds)
	}
	if len(ds[0].Related) == 0 || !strings.Contains(ds[0].Related[0], "s →") {
		t.Errorf("GL011 should cite the witness production, got %v", ds[0].Related)
	}
}

const danglingElseSrc = `
%token IF ELSE E
%%
s : IF s | IF s ELSE s | E ;
`

func TestConflictProvenanceAndBudget(t *testing.T) {
	g := grammar.MustParse("dangle.y", danglingElseSrc)

	// No budget: the shift/reduce conflict is a warning with provenance.
	rep := mustRun(t, g, Options{})
	ds := findAll(rep, CodeShiftReduce)
	if len(ds) != 1 {
		t.Fatalf("want 1 GL030, got %+v", rep.Diagnostics)
	}
	d := ds[0]
	if d.Severity != Warning {
		t.Errorf("unbudgeted GL030 severity = %v, want Warning", d.Severity)
	}
	if d.State < 0 || g.SymName(d.Sym) != "ELSE" {
		t.Errorf("GL030 locus wrong: state=%d sym=%s", d.State, g.SymName(d.Sym))
	}
	var haveCex, haveWhy bool
	for _, rel := range d.Related {
		if strings.HasPrefix(rel, "triggering input: ") && strings.Contains(rel, "•") {
			haveCex = true
		}
		if strings.Contains(rel, "∈ LA(") {
			haveWhy = true
		}
	}
	if !haveCex || !haveWhy {
		t.Errorf("GL030 provenance incomplete (cex=%v explain=%v): %v", haveCex, haveWhy, d.Related)
	}
	if len(findAll(rep, CodeExpectMismatch)) != 0 {
		t.Errorf("no budget declared: GL032 must not fire")
	}

	// Budget matching the conflict count: downgrade to Info, no GL032.
	rep = mustRun(t, g, Options{Budget: &Budget{SR: 1, RR: 0}})
	ds = findAll(rep, CodeShiftReduce)
	if len(ds) != 1 || ds[0].Severity != Info {
		t.Errorf("budgeted GL030 should be Info, got %+v", ds)
	}
	if len(findAll(rep, CodeExpectMismatch)) != 0 {
		t.Errorf("matching budget: GL032 must not fire")
	}

	// Mismatched budget: GL032 fires and the conflict stays Warning.
	rep = mustRun(t, g, Options{Budget: &Budget{SR: 2, RR: 0}})
	if ds := findAll(rep, CodeExpectMismatch); len(ds) != 1 {
		t.Errorf("mismatched budget: want GL032, got %+v", rep.Diagnostics)
	}
	if ds := findAll(rep, CodeShiftReduce); len(ds) != 1 || ds[0].Severity != Warning {
		t.Errorf("mismatched budget: GL030 should stay Warning, got %+v", ds)
	}
}

func TestExpectDeclarationIsDefaultBudget(t *testing.T) {
	g := grammar.MustParse("dangle.y", "%expect 1\n"+danglingElseSrc)
	rep := mustRun(t, g, Options{})
	ds := findAll(rep, CodeShiftReduce)
	if len(ds) != 1 || ds[0].Severity != Info {
		t.Errorf("%%expect 1 should downgrade GL030 to Info, got %+v", ds)
	}
}

func TestEnableDisableAndUnknownPass(t *testing.T) {
	g := grammars.MustLoad("expr")
	rep := mustRun(t, g, Options{Enable: []string{"useless", "unit-chains"}})
	if len(rep.Passes) != 2 || rep.Passes[0] != "useless" || rep.Passes[1] != "unit-chains" {
		t.Errorf("Enable: passes = %v", rep.Passes)
	}
	rep = mustRun(t, g, Options{Disable: []string{"conflicts"}})
	for _, p := range rep.Passes {
		if p == "conflicts" {
			t.Errorf("Disable did not drop conflicts: %v", rep.Passes)
		}
	}
	if _, err := Run(g, Options{Enable: []string{"nope"}}); err == nil {
		t.Errorf("unknown pass name should error")
	}
}

func TestSeverityFilterAndWerror(t *testing.T) {
	g := grammar.MustParse("dangle.y", danglingElseSrc)

	rep := mustRun(t, g, Options{MinSeverity: Error})
	if len(rep.Diagnostics) != 0 {
		t.Errorf("-severity=error should drop the warning, got %+v", rep.Diagnostics)
	}

	// Werror promotes before filtering: the same run now reports it.
	rep = mustRun(t, g, Options{MinSeverity: Error, Werror: true})
	ds := findAll(rep, CodeShiftReduce)
	if len(ds) != 1 || ds[0].Severity != Error {
		t.Fatalf("-Werror -severity=error should keep the promoted conflict, got %+v", rep.Diagnostics)
	}
	if !rep.HasErrors() {
		t.Errorf("HasErrors should be true after promotion")
	}
}

func TestObservability(t *testing.T) {
	rec := obs.New()
	g := grammars.MustLoad("expr")
	mustRun(t, g, Options{Recorder: rec})
	data := rec.ExportData()
	if data.Counters[obs.CLintPasses] != int64(len(Analyzers)) {
		t.Errorf("lint_passes counter = %d, want %d", data.Counters[obs.CLintPasses], len(Analyzers))
	}
	var sawFacts, sawPass bool
	var walk func(sp obs.SpanExport)
	walk = func(sp obs.SpanExport) {
		if sp.Name == "lint-facts" {
			sawFacts = true
		}
		if strings.HasPrefix(sp.Name, "lint-pass-") {
			sawPass = true
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	for _, sp := range data.Phases {
		walk(sp)
	}
	if !sawFacts || !sawPass {
		t.Errorf("missing lint spans (facts=%v pass=%v)", sawFacts, sawPass)
	}
}

func TestRunDeterministic(t *testing.T) {
	for _, name := range []string{"csub", "dangling-else", "lua"} {
		g := grammars.MustLoad(name)
		a := mustRun(t, g, Options{})
		b := mustRun(t, g, Options{})
		var bufA, bufB bytes.Buffer
		if err := WriteText(&bufA, []*Report{a}); err != nil {
			t.Fatal(err)
		}
		if err := WriteText(&bufB, []*Report{b}); err != nil {
			t.Fatal(err)
		}
		if bufA.String() != bufB.String() {
			t.Errorf("%s: two runs differ:\n%s\nvs\n%s", name, bufA.String(), bufB.String())
		}
	}
}

func TestConflictGate(t *testing.T) {
	run := func(src string) error {
		g := grammar.MustParse("t.y", src)
		auto := lr0.New(g, grammar.Analyze(g))
		dp := core.Compute(auto)
		return ConflictGate(g, lalrtable.Build(auto, dp.Sets()))
	}
	if err := run(danglingElseSrc); err == nil {
		t.Errorf("undeclared conflict should fail the gate")
	}
	if err := run("%expect 1\n" + danglingElseSrc); err != nil {
		t.Errorf("%%expect 1 should satisfy the gate: %v", err)
	}
	if err := run("%token A\n%%\ns : A ;\n"); err != nil {
		t.Errorf("clean grammar should pass the gate: %v", err)
	}
	if err := run("%expect 1\n%token A\n%%\ns : A ;\n"); err == nil {
		t.Errorf("stale %%expect on a clean grammar should fail the gate")
	}
}

func TestSARIFStructure(t *testing.T) {
	g := grammars.MustLoad("csub")
	rep := mustRun(t, g, Options{})
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, []*Report{rep}, []*grammar.Grammar{g}); err != nil {
		t.Fatal(err)
	}

	// Validate the SARIF 2.1.0 structural skeleton from the raw JSON,
	// not our own structs.
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if doc["$schema"] != SARIFSchemaURI {
		t.Errorf("$schema = %v", doc["$schema"])
	}
	if doc["version"] != "2.1.0" {
		t.Errorf("version = %v", doc["version"])
	}
	runs, ok := doc["runs"].([]any)
	if !ok || len(runs) != 1 {
		t.Fatalf("runs = %v", doc["runs"])
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "grammarlint" {
		t.Errorf("driver name = %v", driver["name"])
	}
	rules := driver["rules"].([]any)
	if len(rules) != len(Rules) {
		t.Errorf("rules array has %d entries, want %d", len(rules), len(Rules))
	}
	results, ok := run["results"].([]any)
	if !ok || len(results) == 0 {
		t.Fatalf("csub should produce results (it has a pinned conflict), got %v", run["results"])
	}
	validLevel := map[string]bool{"note": true, "warning": true, "error": true}
	for _, raw := range results {
		res := raw.(map[string]any)
		ruleID, _ := res["ruleId"].(string)
		idx := int(res["ruleIndex"].(float64))
		if idx < 0 || idx >= len(rules) {
			t.Fatalf("ruleIndex %d out of range", idx)
		}
		if rid := rules[idx].(map[string]any)["id"]; rid != ruleID {
			t.Errorf("ruleIndex %d points at %v, result says %s", idx, rid, ruleID)
		}
		if lvl, _ := res["level"].(string); !validLevel[lvl] {
			t.Errorf("invalid level %q", res["level"])
		}
		msg := res["message"].(map[string]any)
		if msg["text"] == "" {
			t.Errorf("empty message text for %s", ruleID)
		}
		locs := res["locations"].([]any)
		uri := locs[0].(map[string]any)["physicalLocation"].(map[string]any)["artifactLocation"].(map[string]any)["uri"]
		if uri != "csub.y" {
			t.Errorf("artifact uri = %v, want csub.y", uri)
		}
	}
}

func TestCorpusBudgetsKeepLintCorpusGreen(t *testing.T) {
	// The contract behind `make lint-corpus`: with the registry's pinned
	// conflict counts as budget, -Werror -severity=error reports nothing
	// on any corpus grammar.
	for _, e := range grammars.All() {
		g, err := grammar.Parse(e.Name+".y", e.Src)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		rep := mustRun(t, g, Options{
			Budget:      &Budget{SR: e.WantSR, RR: e.WantRR},
			Werror:      true,
			MinSeverity: Error,
		})
		for _, d := range rep.Diagnostics {
			t.Errorf("%s: %s[%s]: %s", e.Name, d.Severity, d.Code, d.Message)
		}
	}
}

// TestParallelMatchesSerial walks one grammar's conflicts on four
// workers, sharing its automaton and analysis, and checks the report
// is the serial one.  Under -race it is the check that the walkers'
// shared reads are race-free; run alone, the ambiguity pass's walkers
// are also the first to ask for the lazily built derives-alone
// relation.
func TestParallelMatchesSerial(t *testing.T) {
	for _, name := range []string{"lua", "csub", "pascal", "pli"} {
		for _, enable := range [][]string{nil, {"ambiguity"}} {
			var serial, parallel bytes.Buffer
			for _, run := range []struct {
				out  *bytes.Buffer
				opts Options
			}{{&serial, Options{Enable: enable}}, {&parallel, Options{Enable: enable, Parallelism: 4}}} {
				if err := WriteText(run.out, []*Report{mustRun(t, grammars.MustLoad(name), run.opts)}); err != nil {
					t.Fatal(err)
				}
			}
			if serial.String() != parallel.String() {
				t.Errorf("%s %v: parallel report differs from serial:\n%s\nvs\n%s", name, enable, parallel.String(), serial.String())
			}
		}
	}
}
