package treecount

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/glr"
	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
	"repro/internal/runtime"
)

func counter(t *testing.T, src string) (*grammar.Grammar, *Counter) {
	t.Helper()
	g := grammar.MustParse("t.y", src)
	c, err := New(grammar.Analyze(g))
	if err != nil {
		t.Fatal(err)
	}
	return g, c
}

func terms(g *grammar.Grammar, names ...string) []grammar.Sym {
	out := make([]grammar.Sym, len(names))
	for i, n := range names {
		s := g.SymByName(n)
		if s == grammar.NoSym || !g.IsTerminal(s) {
			s = g.SymByName("'" + n + "'")
		}
		out[i] = s
	}
	return out
}

func TestCatalanCounts(t *testing.T) {
	g, c := counter(t, "%token id\n%%\ne : e '+' e | id ;\n")
	for _, tc := range []struct {
		ops  int
		want uint64
	}{{0, 1}, {1, 1}, {2, 2}, {3, 5}, {4, 14}, {5, 42}} {
		input := []grammar.Sym{g.SymByName("id")}
		for k := 0; k < tc.ops; k++ {
			input = append(input, g.SymByName("'+'"), g.SymByName("id"))
		}
		got, err := c.Count(input)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("trees with %d ops = %d, want Catalan %d", tc.ops, got, tc.want)
		}
	}
}

func TestMembership(t *testing.T) {
	g, c := counter(t, `
%token id
%%
e : e '+' t | t ;
t : '(' e ')' | id ;
`)
	valid := terms(g, "id", "+", "(", "id", ")")
	n, err := c.Count(valid)
	if err != nil || n != 1 {
		t.Errorf("valid input count = %d (%v), want 1", n, err)
	}
	invalid := terms(g, "id", "+")
	n, err = c.Count(invalid)
	if err != nil || n != 0 {
		t.Errorf("invalid input count = %d (%v), want 0", n, err)
	}
	empty, err := c.Count(nil)
	if err != nil || empty != 0 {
		t.Errorf("empty input count = %d, want 0", empty)
	}
}

func TestNullableCounting(t *testing.T) {
	// s : a a ; a : 'x' | ε — "x" has 2 trees (x·ε and ε·x).
	g, c := counter(t, "%%\ns : a a ;\na : 'x' | ;\n")
	n, err := c.Count(terms(g, "x"))
	if err != nil || n != 2 {
		t.Errorf("count = %d (%v), want 2", n, err)
	}
	n, err = c.Count(nil)
	if err != nil || n != 1 {
		t.Errorf("empty count = %d, want 1 (ε·ε)", n)
	}
	n, err = c.Count(terms(g, "x", "x"))
	if err != nil || n != 1 {
		t.Errorf("xx count = %d, want 1", n)
	}
}

func TestCyclicGrammarRejected(t *testing.T) {
	for _, src := range []string{
		"%%\ns : s | 'x' ;\n",                   // unit self-cycle
		"%%\ns : a | 'x' ;\na : s ;\n",          // two-step cycle
		"%%\ns : a s b | 'x' ;\na : ;\nb : ;\n", // cycle through nullables
	} {
		g := grammar.MustParse("t.y", src)
		if _, err := New(grammar.Analyze(g)); !errors.Is(err, ErrCyclic) {
			t.Errorf("grammar %q: err = %v, want ErrCyclic", src, err)
		}
	}
	// Ordinary recursion is not a derivation cycle.
	g := grammar.MustParse("t.y", "%token id\n%%\ne : e '+' e | id ;\n")
	if _, err := New(grammar.Analyze(g)); err != nil {
		t.Errorf("left recursion wrongly rejected: %v", err)
	}
}

// The central oracle test: tree counts equal GLR derivation counts on
// ambiguous and unambiguous grammars alike.
func TestAgreesWithGLR(t *testing.T) {
	srcs := []string{
		"%token id\n%%\ne : e '+' e | e '*' e | id ;\n",
		`
%token IF THEN ELSE other cond
%%
stmt : IF cond THEN stmt | IF cond THEN stmt ELSE stmt | other ;
`,
		"%%\ns : a a ;\na : 'x' | ;\n",
		"%token id\n%%\ne : e '+' t | t ;\nt : '(' e ')' | id ;\n",
	}
	rng := rand.New(rand.NewSource(31))
	for _, src := range srcs {
		g := grammar.MustParse("t.y", src)
		c, err := New(grammar.Analyze(g))
		if err != nil {
			t.Fatal(err)
		}
		a := lr0.New(g, nil)
		gp := glr.New(a, core.Compute(a).Sets())
		gp.MaxStacks = 1 << 16
		sg, err := grammar.NewSentenceGenerator(g)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			sent := sg.Generate(rng, 6)
			if len(sent) > 12 {
				continue // keep GLR's unshared stacks cheap
			}
			want, err := c.Count(sent)
			if err != nil {
				t.Fatal(err)
			}
			got, err := gp.Recognize(sent)
			if err != nil {
				continue // GLR stack-limit blowup on very ambiguous input
			}
			if uint64(got) != want {
				t.Fatalf("grammar %q sentence %v: GLR %d, treecount %d", src, sent, got, want)
			}
			// Mutated inputs: membership must still agree.
			if len(sent) > 0 {
				mut := append([]grammar.Sym{}, sent...)
				mut[rng.Intn(len(mut))] = grammar.Sym(1 + rng.Intn(g.NumTerminals()-1))
				want, err := c.Count(mut)
				if err != nil {
					t.Fatal(err)
				}
				got, err := gp.Recognize(mut)
				if err != nil {
					continue
				}
				if (got > 0) != (want > 0) {
					t.Fatalf("membership disagrees on %v: GLR %d, treecount %d", mut, got, want)
				}
			}
		}
	}
}

// On adequate corpus grammars the LR parser and the tree counter agree,
// and every generated sentence has exactly one tree.
func TestAgreesWithLROnCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, e := range grammars.All() {
		if !e.LALRAdequate || !e.SLRAdequate {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			g := grammars.MustLoad(e.Name)
			c, err := New(grammar.Analyze(g))
			if err != nil {
				t.Skipf("grammar not countable: %v", err)
			}
			a := lr0.New(g, nil)
			tbl := lalrtable.Build(a, core.Compute(a).Sets())
			if len(tbl.Conflicts) > 0 {
				// Precedence-resolved conflicts mean the grammar itself is
				// ambiguous; the deterministic parser picks one tree but
				// the counter sees them all.
				t.Skip("ambiguous grammar disambiguated by precedence")
			}
			lr := runtime.New(tbl)
			for i := 0; i < 25; i++ {
				sent := sg(t, g).Generate(rng, 8)
				if len(sent) > 40 {
					continue
				}
				n, err := c.Count(sent)
				if err != nil {
					t.Fatal(err)
				}
				if n != 1 {
					t.Fatalf("sentence of an unambiguous grammar has %d trees", n)
				}
				if _, err := lr.Parse(runtime.SymLexer(g, sent)); err != nil {
					t.Fatalf("LR rejects a counted sentence: %v", err)
				}
			}
		})
	}
}

var sgCache = map[*grammar.Grammar]*grammar.SentenceGenerator{}

func sg(t *testing.T, g *grammar.Grammar) *grammar.SentenceGenerator {
	t.Helper()
	if s, ok := sgCache[g]; ok {
		return s
	}
	s, err := grammar.NewSentenceGenerator(g)
	if err != nil {
		t.Fatal(err)
	}
	sgCache[g] = s
	return s
}
