package lr0

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/grammar"
)

// ClosureNonterminals returns the nonterminal symbols closed into s.
func (a *Automaton) ClosureNonterminals(s *State) []grammar.Sym {
	var out []grammar.Sym
	s.closureNts.ForEach(func(nt int) {
		out = append(out, a.G.NtSym(nt))
	})
	return out
}

// dragonSrc is grammar 4.1 of Aho–Sethi–Ullman, whose canonical LR(0)
// collection is the textbook 12-state machine (13 here: shifting $end
// out of the accepting kernel adds one state under yacc-style
// augmentation).
const dragonSrc = `
%token id
%%
e : e '+' t | t ;
t : t '*' f | f ;
f : '(' e ')' | id ;
`

func dragon(t *testing.T) *Automaton {
	t.Helper()
	return New(grammar.MustParse("dragon.y", dragonSrc), nil)
}

func TestDragonStateCount(t *testing.T) {
	a := dragon(t)
	if got, want := len(a.States), 13; got != want {
		t.Errorf("states = %d, want %d", got, want)
		for _, s := range a.States {
			t.Log(a.StateString(s))
		}
	}
}

func TestStartStateClosure(t *testing.T) {
	a := dragon(t)
	g := a.G
	s0 := a.States[0]
	if len(s0.Kernel) != 1 || s0.Kernel[0] != (Item{Prod: 0, Dot: 0}) {
		t.Fatalf("start kernel = %v", s0.Kernel)
	}
	nts := a.ClosureNonterminals(s0)
	var names []string
	for _, nt := range nts {
		names = append(names, g.SymName(nt))
	}
	if got := strings.Join(names, " "); got != "e t f" {
		t.Errorf("closure nonterminals = %q, want \"e t f\"", got)
	}
	// Items: 1 kernel + 6 closure productions.
	if got := len(a.Items(s0)); got != 7 {
		t.Errorf("items in state 0 = %d, want 7", got)
	}
	if s0.AccessSym != grammar.NoSym {
		t.Error("start state has an access symbol")
	}
}

func TestGotoAndWalk(t *testing.T) {
	a := dragon(t)
	g := a.G
	id := g.SymByName("id")
	e, tt, f := g.SymByName("e"), g.SymByName("t"), g.SymByName("f")

	// 0 --id--> some state with reduction f→id.
	sid := a.States[0].Goto(id)
	if sid < 0 {
		t.Fatal("no transition on id from state 0")
	}
	st := a.States[sid]
	if len(st.Reductions) != 1 || g.ProdString(st.Reductions[0]) != "f → id" {
		t.Errorf("state after id: %s", a.StateString(st))
	}
	if st.AccessSym != id {
		t.Errorf("access symbol = %s", g.SymName(st.AccessSym))
	}

	// Walking "( id" equals chaining Gotos.
	lp := g.SymByName("'('")
	w := a.WalkString(0, []grammar.Sym{lp, id})
	if w != a.States[a.States[0].Goto(lp)].Goto(id) {
		t.Error("WalkString disagrees with chained Goto")
	}
	if a.WalkString(0, []grammar.Sym{id, id}) != -1 {
		t.Error("WalkString over an impossible string should be -1")
	}

	// GOTO on all three nonterminals from state 0 exists.
	for _, nt := range []grammar.Sym{e, tt, f} {
		if a.States[0].Goto(nt) < 0 {
			t.Errorf("missing GOTO on %s from state 0", g.SymName(nt))
		}
	}
	if a.States[0].Goto(g.SymByName("')'")) != -1 {
		t.Error("Goto on ')' from state 0 should be -1")
	}
}

func TestNtTransitions(t *testing.T) {
	a := dragon(t)
	g := a.G
	// Dragon machine nonterminal transitions: (0,E) (0,T) (0,F) (4,E)
	// (4,T) (4,F) (6,T) (6,F) (7,F) — 9 in total (state numbering here
	// differs, the count doesn't).
	if got, want := len(a.NtTrans), 9; got != want {
		t.Errorf("nonterminal transitions = %d, want %d", got, want)
	}
	for i, nt := range a.NtTrans {
		if nt.Index != i {
			t.Errorf("NtTrans[%d].Index = %d", i, nt.Index)
		}
		if !g.IsNonterminal(nt.Sym) {
			t.Errorf("NtTrans[%d] on terminal %s", i, g.SymName(nt.Sym))
		}
		if a.NtTransIdx(nt.From, nt.Sym) != i {
			t.Errorf("NtTransIdx inverse broken at %d", i)
		}
		if a.States[nt.From].Goto(nt.Sym) != nt.To {
			t.Errorf("NtTrans[%d] disagrees with Goto", i)
		}
	}
	if a.NtTransIdx(0, g.SymByName("id")) != -1 {
		t.Error("NtTransIdx on a terminal should be -1")
	}
	// The state reached via id has only a reduction, hence no
	// nonterminal transitions.
	if a.NtTransIdx(a.States[0].Goto(g.SymByName("id")), g.SymByName("e")) != -1 {
		t.Error("NtTransIdx for missing transition should be -1")
	}
}

func TestDeterminismAndConsistency(t *testing.T) {
	a := dragon(t)
	for _, s := range a.States {
		for i := 1; i < len(s.Transitions); i++ {
			if s.Transitions[i-1].Sym >= s.Transitions[i].Sym {
				t.Errorf("state %d transitions not strictly sorted", s.Index)
			}
		}
		for _, tr := range s.Transitions {
			to := a.States[tr.To]
			if to.AccessSym != tr.Sym {
				t.Errorf("state %d reached via %s but AccessSym is %s",
					to.Index, a.G.SymName(tr.Sym), a.G.SymName(to.AccessSym))
			}
			// Every kernel item of the target is an advanced item whose
			// pre-dot symbol is the transition symbol.
			for _, it := range to.Kernel {
				p := a.G.Prod(int(it.Prod))
				if it.Dot == 0 || p.Rhs[it.Dot-1] != tr.Sym {
					t.Errorf("state %d kernel item %s inconsistent with access %s",
						to.Index, a.ItemString(it), a.G.SymName(tr.Sym))
				}
			}
		}
	}
}

func TestEpsilonReductions(t *testing.T) {
	// A state whose closure contains an ε-production must list it as a
	// reduction.
	g := grammar.MustParse("t.y", `
%%
s : a 'x' ;
a : | 'a' ;
`)
	a := New(g, nil)
	s0 := a.States[0]
	found := false
	for _, r := range s0.Reductions {
		if g.ProdString(r) == "a → ε" {
			found = true
		}
	}
	if !found {
		t.Errorf("state 0 missing ε-reduction:\n%s", a.StateString(s0))
	}
}

func TestAcceptPath(t *testing.T) {
	a := dragon(t)
	g := a.G
	// After shifting "id $end" is unreachable; but "e $end" from state 0
	// must reach a state whose only reduction is the augmented
	// production, i.e. the accept configuration.
	sAcc := a.WalkString(0, []grammar.Sym{g.Start(), grammar.EOF})
	if sAcc < 0 {
		t.Fatal("no accept path")
	}
	st := a.States[sAcc]
	if len(st.Reductions) != 1 || st.Reductions[0] != 0 {
		t.Errorf("accept state reductions = %v", st.Reductions)
	}
}

func TestItemString(t *testing.T) {
	a := dragon(t)
	// Production 1 is e : e '+' t (production 0 is the augmentation).
	got := a.ItemString(Item{Prod: 1, Dot: 2})
	if got != "e → e '+' . t" {
		t.Errorf("ItemString = %q", got)
	}
	got = a.ItemString(Item{Prod: 1, Dot: 3})
	if got != "e → e '+' t ." {
		t.Errorf("ItemString final = %q", got)
	}
}

func TestSharedAnalysisReuse(t *testing.T) {
	g := grammar.MustParse("dragon.y", dragonSrc)
	an := grammar.Analyze(g)
	a := New(g, an)
	if a.An != an {
		t.Error("New should retain the supplied Analysis")
	}
}

func TestWriteDot(t *testing.T) {
	a := dragon(t)
	var b strings.Builder
	if err := a.WriteDot(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"digraph", "rankdir=LR", "s0 [label=", "peripheries=2",
		`label="id"`, "style=dashed", "style=solid", "}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
	// Every state and transition appears.
	for _, s := range a.States {
		if !strings.Contains(out, fmt.Sprintf("s%d [label=", s.Index)) {
			t.Errorf("state %d missing from dot output", s.Index)
		}
	}
	// Record-breaking characters are escaped.
	if strings.Contains(out, "label=\"{state 0|e") && !strings.Contains(out, `\|`) {
		t.Log("no pipes in items — fine")
	}
}

// Property: on random grammars the automaton is deterministic, every
// state is reachable from the start by its kernel's construction, and
// every generated sentence traces a valid terminal path interleaved
// with reductions (checked indirectly: the accept path exists).
func TestRandomGrammarAutomatonInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 120; trial++ {
		g := randomReduced(rng)
		a := New(g, nil)
		if len(a.States) > 400 {
			continue
		}
		seen := make([]bool, len(a.States))
		seen[0] = true
		work := []int{0}
		for len(work) > 0 {
			q := work[len(work)-1]
			work = work[:len(work)-1]
			for _, tr := range a.States[q].Transitions {
				if !seen[tr.To] {
					seen[tr.To] = true
					work = append(work, int(tr.To))
				}
			}
		}
		for q, ok := range seen {
			if !ok {
				t.Fatalf("trial %d: state %d unreachable", trial, q)
			}
		}
		// Nonterminal transition numbering is consistent and complete.
		count := 0
		for _, s := range a.States {
			for _, tr := range s.Transitions {
				if g.IsNonterminal(tr.Sym) {
					count++
					if a.NtTransIdx(s.Index, tr.Sym) < 0 {
						t.Fatalf("trial %d: missing nt transition index", trial)
					}
				}
			}
		}
		if count != len(a.NtTrans) {
			t.Fatalf("trial %d: nt transition count mismatch", trial)
		}
		// The accept configuration is reachable.
		if a.WalkString(0, []grammar.Sym{g.Start(), grammar.EOF}) < 0 {
			t.Fatalf("trial %d: no accept path", trial)
		}
	}
}

// randomReduced builds a reduced random grammar without importing the
// corpus package (which would create an import cycle through tests).
func randomReduced(rng *rand.Rand) *grammar.Grammar {
	nNts, nTerms := 2+rng.Intn(4), 2+rng.Intn(4)
	b := grammar.NewBuilder("rand")
	terms := make([]string, nTerms)
	for i := range terms {
		terms[i] = fmt.Sprintf("t%d", i)
		b.Terminal(terms[i])
	}
	nts := make([]string, nNts)
	for i := range nts {
		nts[i] = fmt.Sprintf("N%d", i)
	}
	for _, nt := range nts {
		for a, n := 0, 1+rng.Intn(3); a < n; a++ {
			rhs := make([]string, rng.Intn(4))
			for k := range rhs {
				if rng.Intn(2) == 0 {
					rhs[k] = terms[rng.Intn(nTerms)]
				} else {
					rhs[k] = nts[rng.Intn(nNts)]
				}
			}
			b.Rule(nt, rhs...)
		}
		b.Rule(nt, terms[rng.Intn(nTerms)])
	}
	b.Start(nts[0])
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	rg, err := grammar.Reduce(g)
	if err != nil {
		panic(err)
	}
	return rg
}
