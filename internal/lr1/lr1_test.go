package lr1

import (
	"testing"

	"repro/internal/grammar"
	"repro/internal/lr0"
)

// notLALRSrc is LR(1) but not LALR(1): canonical keeps the A→c / B→c
// states apart; merging creates a reduce-reduce conflict.
const notLALRSrc = `
%%
s : 'a' a 'd' | 'b' b 'd' | 'a' b 'e' | 'b' a 'e' ;
a : 'c' ;
b : 'c' ;
`

const dragonSrc = `
%token id
%%
e : e '+' t | t ;
t : t '*' f | f ;
f : '(' e ')' | id ;
`

func TestCanonicalBiggerThanLR0(t *testing.T) {
	g := grammar.MustParse("dragon.y", dragonSrc)
	m := New(g, nil)
	a := lr0.New(g, m.An)
	if len(m.States) <= len(a.States) {
		t.Errorf("canonical LR(1) states = %d, LR(0) = %d; canonical should be larger",
			len(m.States), len(a.States))
	}
	// The canonical dragon-book machine for this grammar has 22 states
	// (plus the $end-shift state under yacc augmentation).
	if len(m.States) < 20 {
		t.Errorf("canonical machine suspiciously small: %d states", len(m.States))
	}
}

func TestCanonicalSeparatesNonLALRStates(t *testing.T) {
	g := grammar.MustParse("t.y", notLALRSrc)
	m := New(g, nil)
	// Canonical machine: no state has overlapping reduce lookaheads.
	sr, rr := m.ResolvedConflictCounts(nil)
	if sr != 0 || rr != 0 {
		t.Errorf("canonical conflicts sr=%d rr=%d, want 0/0 (grammar is LR(1))", sr, rr)
	}
	// Two distinct canonical states share the {a→c., b→c.} core.
	coreCount := map[string]int{}
	for _, s := range m.States {
		coreCount[coreKey(s.Kernel)]++
	}
	dup := 0
	for _, n := range coreCount {
		if n > 1 {
			dup++
		}
	}
	if dup == 0 {
		t.Error("expected at least one core shared by multiple canonical states")
	}
}

func TestMergeLALRShowsConflict(t *testing.T) {
	g := grammar.MustParse("t.y", notLALRSrc)
	an := grammar.Analyze(g)
	m := New(g, an)
	a := lr0.New(g, an)
	sets := m.MergeLALR(a)
	// In the merged machine, the c-reduction state has two reductions
	// with overlapping lookaheads.
	found := false
	for q, s := range a.States {
		if len(s.Reductions) == 2 &&
			g.ProdString(s.Reductions[0]) == "a → 'c'" &&
			g.ProdString(s.Reductions[1]) == "b → 'c'" {
			found = true
			if !sets[q][0].Intersects(sets[q][1]) {
				t.Error("merged LALR lookaheads should overlap")
			}
		}
	}
	if !found {
		t.Fatal("merged state not found")
	}
}

func TestGotoMissing(t *testing.T) {
	g := grammar.MustParse("dragon.y", dragonSrc)
	m := New(g, nil)
	if m.States[0].Goto(grammar.EOF) != -1 {
		t.Error("state 0 should have no $end transition")
	}
	if m.States[0].Goto(g.SymByName("e")) < 0 {
		t.Error("state 0 should have an e transition")
	}
}

func TestStartStateSeed(t *testing.T) {
	g := grammar.MustParse("dragon.y", dragonSrc)
	m := New(g, nil)
	s0 := m.States[0]
	if len(s0.Kernel) != 1 || s0.Kernel[0] != (lr0.Item{Prod: 0, Dot: 0}) {
		t.Fatalf("start kernel = %v", s0.Kernel)
	}
	if !s0.LA[0].Has(int(grammar.EOF)) || s0.LA[0].Len() != 1 {
		t.Errorf("start lookahead = %v, want {$end}", s0.LA[0].Elems())
	}
}

func TestDeterministicConstruction(t *testing.T) {
	g := grammar.MustParse("dragon.y", dragonSrc)
	m1 := New(g, nil)
	m2 := New(g, nil)
	if len(m1.States) != len(m2.States) {
		t.Fatal("nondeterministic state count")
	}
	for i := range m1.States {
		a, b := m1.States[i], m2.States[i]
		if len(a.Kernel) != len(b.Kernel) || len(a.Transitions) != len(b.Transitions) {
			t.Fatalf("state %d differs between runs", i)
		}
		for j := range a.Kernel {
			if a.Kernel[j] != b.Kernel[j] || !a.LA[j].Equal(b.LA[j]) {
				t.Fatalf("state %d kernel %d differs", i, j)
			}
		}
		for j := range a.Transitions {
			if a.Transitions[j] != b.Transitions[j] {
				t.Fatalf("state %d transition %d differs", i, j)
			}
		}
	}
}
