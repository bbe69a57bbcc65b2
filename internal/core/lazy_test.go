package core

import (
	"math/rand"
	"testing"

	"repro/internal/grammar"
	"repro/internal/lr0"
)

// In inadequate states the lazy computation must match the full one
// exactly; in adequate states it returns the full terminal set
// (default reduction).  In the last grammar x → a gets its look-ahead
// {c} only through a reads edge over the ε-only y, so the lazy marking
// must follow reads edges as well as includes edges.
func TestLazyMatchesFullOnInadequateStates(t *testing.T) {
	for _, src := range []string{lrEqSrc, notLALRSrc, `
%token IF THEN ELSE other cond
%%
stmt : IF cond THEN stmt | IF cond THEN stmt ELSE stmt | other ;
`, `
%token a c d
%%
s : x y c | a d ;
x : a ;
y : ;
`} {
		g := grammar.MustParse("t.y", src)
		a := lr0.New(g, nil)
		full := Compute(a)
		lazy := ComputeLazy(a)
		for q, s := range a.States {
			inad := a.Inadequate(s)
			for i, pi := range s.Reductions {
				if pi == 0 {
					continue
				}
				if inad {
					if !lazy.LA[q][i].Equal(full.LA[q][i]) {
						t.Errorf("state %d LA(%s): lazy %s, full %s",
							q, g.ProdString(pi),
							grammar.TerminalSetNames(g, lazy.LA[q][i]),
							grammar.TerminalSetNames(g, full.LA[q][i]))
					}
				} else {
					if lazy.LA[q][i].Len() != g.NumTerminals() {
						t.Errorf("state %d adequate reduction should default-reduce, got %s",
							q, grammar.TerminalSetNames(g, lazy.LA[q][i]))
					}
				}
			}
		}
	}
}

// Property: lazy and full agree on inadequate-state LA for random
// grammars — the conflict reports they imply are identical.
func TestLazyRandomGrammars(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 120; trial++ {
		g := randomReducedGrammar(rng)
		a := lr0.New(g, nil)
		if len(a.States) > 300 {
			continue
		}
		full := Compute(a)
		lazy := ComputeLazy(a)
		for q, s := range a.States {
			if !a.Inadequate(s) {
				continue
			}
			for i, pi := range s.Reductions {
				if pi == 0 {
					continue
				}
				if !lazy.LA[q][i].Equal(full.LA[q][i]) {
					t.Fatalf("trial %d state %d: lazy %s != full %s\n%s",
						trial, q,
						grammar.TerminalSetNames(g, lazy.LA[q][i]),
						grammar.TerminalSetNames(g, full.LA[q][i]), g)
				}
			}
		}
	}
}

// Lazy evaluation must actually skip work on grammars dominated by
// adequate states.
func TestLazySkipsAdequateWork(t *testing.T) {
	g := grammar.MustParse("t.y", `
%token id
%%
e : e '+' t | t ;
t : t '*' f | f ;
f : '(' e ')' | id ;
`)
	a := lr0.New(g, nil)
	lazy := ComputeLazy(a)
	// The dragon grammar has inadequate LR(0) states, so some follow
	// sets are computed — but not all: unneeded transitions stay empty.
	computed := 0
	for i := range lazy.Follow {
		if !lazy.Follow[i].Empty() {
			computed++
		}
	}
	if computed == 0 {
		t.Fatal("nothing computed despite inadequate states")
	}
	if computed == len(lazy.Follow) {
		t.Log("all transitions needed for this grammar (acceptable, just not lazy)")
	}
}
