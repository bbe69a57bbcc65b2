package ambig

// Differential oracle test: the GLR recogniser and the span-DP tree
// counter are independent implementations of "how many parses does this
// sentence have?" — one walks the LALR automaton nondeterministically,
// the other never looks at it.  They must agree on every sentence of
// every corpus grammar, ambiguous ones included; the ambiguity prover's
// verdicts lean on exactly this agreement.

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/glr"
	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/lr0"
	"repro/internal/treecount"
)

func TestGLRTreecountDifferential(t *testing.T) {
	const (
		sentencesPer = 40
		maxLen       = 14
	)
	for _, e := range grammars.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			g, err := grammars.Load(e.Name)
			if err != nil {
				t.Fatal(err)
			}
			tc, err := treecount.New(grammar.Analyze(g))
			if err != nil {
				t.Skipf("treecount unavailable: %v", err)
			}
			sg, err := grammar.NewSentenceGenerator(g)
			if err != nil {
				t.Fatal(err)
			}
			an := grammar.Analyze(g)
			a := lr0.New(g, an)
			p := glr.New(a, core.Compute(a).Sets())

			rng := rand.New(rand.NewSource(int64(len(e.Name)) * 7919))
			checked := 0
			for i := 0; i < sentencesPer*4 && checked < sentencesPer; i++ {
				s := sg.Generate(rng, 10)
				if len(s) > maxLen {
					continue
				}
				checked++
				derivs, err := p.Recognize(s)
				if err != nil {
					// Pathologically ambiguous sentence blew the GLR
					// caps; the counter has no such cap, skip.
					continue
				}
				trees, err := tc.Count(s)
				if err != nil {
					t.Fatalf("treecount(%v): %v", s, err)
				}
				if uint64(derivs) != trees {
					t.Fatalf("oracles disagree on %q: glr=%d treecount=%d",
						sentenceNames(g, s), derivs, trees)
				}
				if derivs == 0 {
					t.Fatalf("generator produced a sentence both oracles reject: %q",
						sentenceNames(g, s))
				}
			}
			if checked == 0 {
				t.Skip("no sentences within the length cap")
			}
		})
	}
}

func sentenceNames(g *grammar.Grammar, s []grammar.Sym) string {
	return sentence(g, s)
}
