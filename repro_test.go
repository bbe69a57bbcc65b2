package repro

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/grammars"
	"repro/internal/obs"
)

const calcSrc = `
%token NUM
%left '+' '-'
%left '*' '/'
%%
e : e '+' e | e '-' e | e '*' e | e '/' e | '(' e ')' | NUM ;
`

func TestAnalyzeDefaultMethod(t *testing.T) {
	g, err := LoadGrammar("calc.y", calcSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodDeRemerPennello || res.DP == nil {
		t.Error("default method should be DeRemer–Pennello with DP relations populated")
	}
	if !res.Tables.Adequate() {
		t.Errorf("calc grammar should be adequate:\n%s", res.Tables.ConflictReport())
	}
	if res.Automaton == nil || len(res.Lookahead) != len(res.Automaton.States) {
		t.Error("lookahead shape mismatch")
	}
}

func TestAnalyzeAllMethodsAgreeOnAdequacy(t *testing.T) {
	for _, e := range grammars.All() {
		g := grammars.MustLoad(e.Name)
		for _, m := range []Method{MethodDeRemerPennello, MethodPropagation, MethodCanonicalMerge} {
			res, err := Analyze(g, Options{Method: m})
			if err != nil {
				t.Fatalf("%s/%v: %v", e.Name, m, err)
			}
			if res.Tables.Adequate() != e.LALRAdequate {
				t.Errorf("%s/%v: adequate = %v, want %v", e.Name, m, res.Tables.Adequate(), e.LALRAdequate)
			}
			if res.DP != nil && m != MethodDeRemerPennello {
				t.Errorf("%s/%v: DP populated for non-DP method", e.Name, m)
			}
		}
		res, err := Analyze(g, Options{Method: MethodSLR})
		if err != nil {
			t.Fatal(err)
		}
		if res.Tables.Adequate() != e.SLRAdequate {
			t.Errorf("%s/slr: adequate = %v, want %v", e.Name, res.Tables.Adequate(), e.SLRAdequate)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(nil, Options{}); err == nil {
		t.Error("Analyze(nil) should fail")
	}
	g, _ := LoadGrammar("t.y", "%%\ns : 'a' ;\n")
	if _, err := Analyze(g, Options{Method: Method(99)}); err == nil {
		t.Error("unknown method should fail")
	}
}

func TestEndToEndParse(t *testing.T) {
	g, err := LoadGrammar("calc.y", calcSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := NewParser(res.Tables)
	num, plus := g.SymByName("NUM"), g.SymByName("'+'")
	tree, err := p.Parse(SymLexer(g, []Sym{num, plus, num}))
	if err != nil {
		t.Fatal(err)
	}
	if tree == nil || tree.Sym != g.Start() {
		t.Error("parse tree root should be the start symbol")
	}
	if _, err := p.Parse(SymLexer(g, []Sym{plus})); err == nil {
		t.Error("invalid input should fail")
	}
}

func TestMethodStringsAndParsing(t *testing.T) {
	for _, c := range []struct {
		name string
		m    Method
	}{
		{"dp", MethodDeRemerPennello},
		{"deremer-pennello", MethodDeRemerPennello},
		{"lalr", MethodDeRemerPennello},
		{"slr", MethodSLR},
		{"prop", MethodPropagation},
		{"yacc", MethodPropagation},
		{"lr1", MethodCanonicalMerge},
		{"canonical", MethodCanonicalMerge},
	} {
		m, err := ParseMethod(c.name)
		if err != nil || m != c.m {
			t.Errorf("ParseMethod(%q) = %v, %v", c.name, m, err)
		}
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Error("ParseMethod(bogus) should fail")
	}
	if MethodSLR.String() != "slr" || Method(42).String() == "" {
		t.Error("Method.String broken")
	}
	if !strings.Contains(Method(42).String(), "42") {
		t.Error("unknown method string should include the value")
	}
}

func TestNewGLRFacade(t *testing.T) {
	g, err := LoadGrammar("amb.y", "%token id\n%%\ne : e '+' e | id ;\n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	glr := NewGLR(res)
	id, plus := g.SymByName("id"), g.SymByName("'+'")
	n, err := glr.Recognize([]Sym{id, plus, id, plus, id})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("derivations = %d, want 2", n)
	}
}

func TestCounterexamples(t *testing.T) {
	g, err := LoadGrammar("de.y", `
%token IF THEN ELSE other cond
%%
stmt : IF cond THEN stmt | IF cond THEN stmt ELSE stmt | other ;
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exs := res.Counterexamples()
	if len(exs) != 1 {
		t.Fatalf("examples = %d, want 1", len(exs))
	}
	if exs[0].Text != "IF cond THEN other • ELSE" {
		t.Errorf("Text = %q", exs[0].Text)
	}
	if got := len(exs[0].Input); got != 5 {
		t.Errorf("Input length = %d, want 5", got)
	}
	// Adequate grammars yield none.
	g2, _ := LoadGrammar("ok.y", "%token A\n%%\ns : A ;\n")
	res2, _ := Analyze(g2, Options{})
	if len(res2.Counterexamples()) != 0 {
		t.Error("adequate grammar produced counterexamples")
	}
}

// TestCostModelIdentity checks the paper's unit-cost accounting on
// every DP analysis of the corpus and its mutation-fuzzer variants:
// each bit-set union is a traversed relation edge, a non-root SCC
// member taking its root's set, or a Follow set joined into a
// look-ahead, so bitset_unions = relation_edges + (scc_pushes − sccs)
// + la_unions.
func TestCostModelIdentity(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 1
	}
	check := func(label, file, src string) {
		t.Helper()
		g, err := LoadGrammar(file, src)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		rec := NewRecorder()
		if _, err := Analyze(g, Options{Recorder: rec}); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		unions, edges := rec.Counter(obs.CBitsetUnions), rec.Counter(obs.CRelationEdges)
		pushes, sccs, la := rec.Counter(obs.CSCCPushes), rec.Counter(obs.CSCCs), rec.Counter(obs.CLAUnions)
		if la == 0 || sccs == 0 {
			t.Fatalf("%s: no Digraph or look-ahead counters recorded", label)
		}
		if unions != edges+(pushes-sccs)+la {
			t.Errorf("%s: bitset_unions %d != relation_edges %d + (scc_pushes %d - sccs %d) + la_unions %d",
				label, unions, edges, pushes, sccs, la)
		}
	}
	for _, e := range grammars.All() {
		check(e.Name, e.Name+".y", e.Src)
		for seed := int64(1); seed <= seeds; seed++ {
			for i, m := range grammars.Mutations(e.Src, seed, 6) {
				check(e.Name+" mutant "+strconv.Itoa(int(seed))+"/"+strconv.Itoa(i), e.Name+"-mutant.y", m)
			}
		}
	}
}
