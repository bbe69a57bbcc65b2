package glr

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
	"repro/internal/runtime"
)

func build(t *testing.T, src string) (*lr0.Automaton, *Parser) {
	t.Helper()
	g := grammar.MustParse("t.y", src)
	a := lr0.New(g, nil)
	return a, New(a, core.Compute(a).Sets())
}

func syms(g *grammar.Grammar, names ...string) []grammar.Sym {
	out := make([]grammar.Sym, len(names))
	for i, n := range names {
		s := g.SymByName(n)
		if s == grammar.NoSym || !g.IsTerminal(s) {
			if q := g.SymByName("'" + n + "'"); q != grammar.NoSym {
				s = q
			}
		}
		if s == grammar.NoSym || !g.IsTerminal(s) {
			panic("unknown terminal " + n)
		}
		out[i] = s
	}
	return out
}

func TestAmbiguousExpressionCountsDerivations(t *testing.T) {
	a, p := build(t, `
%token id
%%
e : e '+' e | id ;
`)
	g := a.G
	cases := []struct {
		input []string
		want  int
	}{
		{[]string{"id"}, 1},
		{[]string{"id", "+", "id"}, 1},
		{[]string{"id", "+", "id", "+", "id"}, 2},                        // (a+b)+c vs a+(b+c)
		{[]string{"id", "+", "id", "+", "id", "+", "id"}, 5},             // Catalan(3)
		{[]string{"id", "+", "id", "+", "id", "+", "id", "+", "id"}, 14}, // Catalan(4)
		{[]string{"id", "+"}, 0},
		{[]string{"+", "id"}, 0},
	}
	for _, c := range cases {
		got, err := p.Recognize(syms(g, c.input...))
		if err != nil {
			t.Fatalf("%v: %v", c.input, err)
		}
		if got != c.want {
			t.Errorf("derivations(%v) = %d, want %d", c.input, got, c.want)
		}
	}
}

// Walk counts every accepting stack but materialises only the first
// max, each a distinct derivation ending in the start production.
func TestWalkCountsAllMaterialisesMax(t *testing.T) {
	a, p := build(t, `
%token id
%%
e : e '+' e | id ;
`)
	g := a.G
	in := syms(g, "id", "+", "id", "+", "id", "+", "id", "+", "id")
	for _, max := range []int{0, 1, 3, 14, 20} {
		n, ds, err := p.Walk(in, max)
		if err != nil {
			t.Fatal(err)
		}
		if n != 14 || len(ds) != min(max, 14) {
			t.Errorf("Walk(max %d) = %d, %d derivations; want 14, %d", max, n, len(ds), min(max, 14))
		}
		seen := map[string]bool{}
		for _, d := range ds {
			key := d.String(g)
			if seen[key] {
				t.Errorf("max %d: derivation %q twice", max, key)
			}
			seen[key] = true
			if last := d.Prods[len(d.Prods)-1]; g.Prod(last).Lhs != g.Start() {
				t.Errorf("max %d: derivation ends with %s", max, g.ProdString(last))
			}
		}
	}
	ds, err := p.Derivations(in, 3)
	if err != nil || len(ds) != 3 {
		t.Fatalf("Derivations(3) = %d, %v", len(ds), err)
	}
	_, want, _ := p.Walk(in, 3)
	for i := range ds {
		if ds[i].String(g) != want[i].String(g) {
			t.Errorf("Derivations[%d] = %s, Walk's = %s", i, ds[i].String(g), want[i].String(g))
		}
	}
}

func TestDanglingElseHasTwoDerivations(t *testing.T) {
	a, p := build(t, `
%token IF THEN ELSE other cond
%%
stmt : IF cond THEN stmt
     | IF cond THEN stmt ELSE stmt
     | other ;
`)
	g := a.G
	got, err := p.Recognize(syms(g, "IF", "cond", "THEN", "IF", "cond", "THEN", "other", "ELSE", "other"))
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("dangling else derivations = %d, want 2", got)
	}
	// Unambiguous instance: one arm only.
	got, err = p.Recognize(syms(g, "IF", "cond", "THEN", "other"))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("one-armed if derivations = %d, want 1", got)
	}
}

func TestGLRRescuesNonLALRGrammar(t *testing.T) {
	// LR(1)-but-not-LALR(1): the merged reduce/reduce conflict forks,
	// the wrong fork dies, and every valid input has exactly one
	// derivation — GLR parses what LALR cannot.
	a, p := build(t, `
%%
s : 'a' a 'd' | 'b' b 'd' | 'a' b 'e' | 'b' a 'e' ;
a : 'c' ;
b : 'c' ;
`)
	g := a.G
	for _, input := range [][]string{
		{"a", "c", "d"}, {"b", "c", "d"}, {"a", "c", "e"}, {"b", "c", "e"},
	} {
		got, err := p.Recognize(syms(g, input...))
		if err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Errorf("derivations(%v) = %d, want 1", input, got)
		}
	}
	if got, _ := p.Recognize(syms(g, "a", "c", "c")); got != 0 {
		t.Errorf("invalid input accepted %d times", got)
	}
}

func TestCyclicGrammarHitsStepLimit(t *testing.T) {
	a, p := build(t, `
%%
s : s | 'x' ;
`)
	p.MaxSteps = 1000
	_, err := p.Recognize(syms(a.G, "x"))
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("err = %v, want step limit", err)
	}
}

func TestStackLimit(t *testing.T) {
	a, p := build(t, `
%token id
%%
e : e '+' e | id ;
`)
	p.MaxStacks = 4
	in := syms(a.G, "id", "+", "id", "+", "id", "+", "id", "+", "id", "+", "id")
	if _, err := p.Recognize(in); err == nil || !strings.Contains(err.Error(), "stack limit") {
		t.Errorf("err = %v, want stack limit", err)
	}
}

// Differential: on adequate corpus grammars GLR agrees with the
// deterministic parser and reports exactly one derivation.
func TestGLRAgreesWithLRParserOnCorpus(t *testing.T) {
	for _, e := range grammars.All() {
		if !e.LALRAdequate {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			g := grammars.MustLoad(e.Name)
			a := lr0.New(g, nil)
			sets := core.Compute(a).Sets()
			tbl := lalrtable.Build(a, sets)
			// Skip grammars whose precedence declarations hide genuine
			// ambiguity (GLR sees >1 derivations there by design).
			if len(tbl.Conflicts) > 0 {
				t.Skip("precedence-resolved grammar: ambiguity is intentional")
			}
			glr := New(a, sets)
			lr := runtime.New(tbl)
			sg, err := grammar.NewSentenceGenerator(g)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(4))
			for i := 0; i < 50; i++ {
				sent := sg.Generate(rng, 10)
				if len(sent) > 500 {
					continue
				}
				n, err := glr.Recognize(sent)
				if err != nil {
					t.Fatalf("glr error: %v", err)
				}
				if n != 1 {
					t.Fatalf("derivations = %d on an unambiguous grammar (len %d)", n, len(sent))
				}
				if _, err := lr.Parse(runtime.SymLexer(g, sent)); err != nil {
					t.Fatalf("LR parser disagrees: %v", err)
				}
			}
		})
	}
}
