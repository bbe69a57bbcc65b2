package prop

import (
	"testing"

	"repro/internal/grammar"
	"repro/internal/lr0"
)

func TestRoundsReported(t *testing.T) {
	g := grammar.MustParse("t.y", `
%token id
%%
s : l '=' r | r ;
l : '*' r | id ;
r : l ;
`)
	a := lr0.New(g, nil)
	_, rounds := Compute(a)
	if rounds < 2 {
		t.Errorf("rounds = %d; this grammar needs at least one productive sweep plus the quiescent one", rounds)
	}
}

func TestSpontaneousLookahead(t *testing.T) {
	// S → A 'x'.  The lookahead 'x' for A→'a'. is generated
	// spontaneously (FIRST of what follows A), not propagated.
	g := grammar.MustParse("t.y", `
%%
s : a 'x' ;
a : 'a' ;
`)
	a := lr0.New(g, nil)
	sets, _ := Compute(a)
	qa := a.States[0].Goto(g.SymByName("'a'"))
	if qa < 0 {
		t.Fatal("no 'a' transition")
	}
	got := grammar.TerminalSetNames(g, sets[qa][0])
	if got != "{'x'}" {
		t.Errorf("LA(a→'a') = %s, want {'x'}", got)
	}
}

func TestPropagatedLookahead(t *testing.T) {
	// S → '(' S ')' | 'x'.  Both paths to the s→'x'. kernel reach the
	// same LR(0) state — the definition of LALR merging — so its
	// look-ahead is the union {$end, ')'} and the ')' part can only
	// arrive via propagation from the nested context.
	g := grammar.MustParse("t.y", `
%%
s : '(' s ')' | 'x' ;
`)
	a := lr0.New(g, nil)
	sets, _ := Compute(a)
	lp, x := g.SymByName("'('"), g.SymByName("'x'")
	qTop := a.States[0].Goto(x)
	qIn := a.States[a.States[0].Goto(lp)].Goto(x)
	if qTop != qIn {
		t.Fatalf("LR(0) must merge the two 'x' states (%d vs %d)", qTop, qIn)
	}
	if got := grammar.TerminalSetNames(g, sets[qTop][0]); got != "{$end ')'}" {
		t.Errorf("LA(s→'x') = %s, want {$end ')'}", got)
	}
	// The reduction of the outer production is context-split for real:
	// s → '(' s ')' . only ever reduces with the lookaheads of its own
	// nesting depth — which is again every depth, hence {$end ')'} too;
	// what distinguishes propagation from FOLLOW here is nothing, so
	// also check a grammar where LALR < SLR (see package slr tests).
	qr := a.WalkString(0, []grammar.Sym{lp, g.SymByName("s"), g.SymByName("')'")})
	if qr < 0 {
		t.Fatal("walk failed")
	}
	if got := grammar.TerminalSetNames(g, sets[qr][0]); got != "{$end ')'}" {
		t.Errorf("LA(s→'(' s ')') = %s, want {$end ')'}", got)
	}
}

func TestEpsilonReductionLookahead(t *testing.T) {
	// ε-reductions live in the closure, not the kernel; step 3 of the
	// algorithm must still find their lookaheads.
	g := grammar.MustParse("t.y", `
%%
s : a 'x' ;
a : | 'a' ;
`)
	a := lr0.New(g, nil)
	sets, _ := Compute(a)
	for i, pi := range a.States[0].Reductions {
		if g.ProdString(pi) == "a → ε" {
			if got := grammar.TerminalSetNames(g, sets[0][i]); got != "{'x'}" {
				t.Errorf("LA(a→ε) = %s, want {'x'}", got)
			}
			return
		}
	}
	t.Fatal("ε-reduction not found in state 0")
}
