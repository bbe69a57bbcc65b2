package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/grammar"
	"repro/internal/lr0"
)

func compute(t *testing.T, src string) *Result {
	t.Helper()
	g := grammar.MustParse("t.y", src)
	return Compute(lr0.New(g, nil))
}

// Exact reports whether the computed LA sets are guaranteed to be the
// exact LALR(1) sets.  This fails only when reads is cyclic — but then
// the grammar is not LR(k) for any k, so reporting its (possibly
// enlarged) conflict set remains sound.
func (r *Result) Exact() bool { return r.ReadsStats != nil && !r.ReadsStats.Cyclic() }

// DumpLA renders every reduction's look-ahead set, one line per
// reduction.
func (r *Result) DumpLA() string {
	var b strings.Builder
	a := r.Auto
	for q, s := range a.States {
		for i, pi := range s.Reductions {
			fmt.Fprintf(&b, "state %d: LA(%s) = %s\n", q,
				a.G.ProdString(pi), grammar.TerminalSetNames(a.G, r.LA[q][i]))
		}
	}
	return b.String()
}

// The canonical LALR-but-not-SLR grammar (Aho–Sethi–Ullman ex. 4.48):
//
//	S → L = R | R ;  L → * R | id ;  R → L
//
// SLR sees a shift/reduce conflict on '=' because '=' ∈ FOLLOW(R);
// the LALR(1) look-ahead of R→L in the conflicted state is {$end} only.
const lrEqSrc = `
%token id
%%
s : l '=' r | r ;
l : '*' r | id ;
r : l ;
`

func TestLALRBeatsSLROnAssignmentGrammar(t *testing.T) {
	r := compute(t, lrEqSrc)
	a := r.Auto
	g := a.G
	eq := g.SymByName("'='")

	// Find the state whose kernel contains both S → L.=R and R → L.
	var target *lr0.State
	for _, s := range a.States {
		hasShift, hasRed := false, false
		for _, it := range s.Kernel {
			p := g.Prod(int(it.Prod))
			if g.ProdString(p.Index) == "s → l '=' r" && it.Dot == 1 {
				hasShift = true
			}
			if g.ProdString(p.Index) == "r → l" && it.Dot == 1 {
				hasRed = true
			}
		}
		if hasShift && hasRed {
			target = s
			break
		}
	}
	if target == nil {
		t.Fatal("conflict state not found")
	}
	var la bitset.Set
	for i, pi := range target.Reductions {
		if g.ProdString(pi) == "r → l" {
			la = r.LA[target.Index][i]
		}
	}
	if la.Has(int(eq)) {
		t.Errorf("LA(r→l) contains '=': %s — grammar would wrongly conflict", grammar.TerminalSetNames(g, la))
	}
	if !la.Has(int(grammar.EOF)) {
		t.Errorf("LA(r→l) = %s, want {$end}", grammar.TerminalSetNames(g, la))
	}
	if la.Len() != 1 {
		t.Errorf("LA(r→l) = %s, want exactly {$end}", grammar.TerminalSetNames(g, la))
	}
	// And SLR's FOLLOW(R) does contain '=' — that is the whole point.
	if !a.An.Follow(g.SymByName("r")).Has(int(eq)) {
		t.Error("FOLLOW(r) should contain '='")
	}
	if !r.Exact() {
		t.Error("reads is acyclic, result must be exact")
	}
	if r.NotLRk() {
		t.Error("grammar is LR(1), reads must be acyclic")
	}
	// Instructive structural fact: this grammar's includes relation IS
	// cyclic ((s,l) and (s,r) include each other in the '*'-loop state),
	// and the computed sets are exact anyway — least-fixpoint semantics.
	if !r.IncludesStats.Cyclic() {
		t.Error("expected an includes cycle in the L=R grammar")
	}
}

// The canonical LR(1)-but-not-LALR(1) grammar (ASU ex. 4.44):
//
//	S → a A d | b B d | a B e | b A e ;  A → c ;  B → c
//
// The LR(0) state after "a c"/"b c" merges A→c. and B→c.; their LALR
// look-aheads overlap ({d,e} each), a reduce-reduce conflict canonical
// LR(1) does not have.
const notLALRSrc = `
%%
s : 'a' a 'd' | 'b' b 'd' | 'a' b 'e' | 'b' a 'e' ;
a : 'c' ;
b : 'c' ;
`

func TestNotLALRGrammarHasOverlappingLA(t *testing.T) {
	r := compute(t, notLALRSrc)
	a := r.Auto
	g := a.G
	found := false
	for q, s := range a.States {
		if len(s.Reductions) != 2 {
			continue
		}
		if g.ProdString(s.Reductions[0]) == "a → 'c'" && g.ProdString(s.Reductions[1]) == "b → 'c'" {
			found = true
			la0, la1 := r.LA[q][0], r.LA[q][1]
			if !la0.Intersects(la1) {
				t.Errorf("expected overlapping LA sets, got %s and %s",
					grammar.TerminalSetNames(g, la0), grammar.TerminalSetNames(g, la1))
			}
			want := bitset.FromSlice([]int{int(g.SymByName("'d'")), int(g.SymByName("'e'"))})
			if !la0.Equal(want) || !la1.Equal(want) {
				t.Errorf("LA = %s / %s, want {'d' 'e'} both",
					grammar.TerminalSetNames(g, la0), grammar.TerminalSetNames(g, la1))
			}
		}
	}
	if !found {
		t.Fatal("merged c-reduction state not found")
	}
	// reads is acyclic: DP computes the exact LALR sets; the grammar
	// simply is not LALR(1).
	if !r.Exact() {
		t.Error("reads should be acyclic for this grammar")
	}
}

func TestCyclicReadsMeansNotLRk(t *testing.T) {
	// S → A S | b ; A → ε.  The state reached on A has a self-loop on A,
	// and A is nullable, so (r,A) reads (r,A): the grammar (which is
	// infinitely ambiguous: S ⇒ AS ⇒ S) is not LR(k) for any k.
	r := compute(t, `
%%
s : a s | 'b' ;
a : ;
`)
	if !r.NotLRk() {
		t.Error("cyclic reads not detected")
	}
	if r.Exact() {
		t.Error("result must not claim exactness with cyclic reads")
	}
	st := r.Stats()
	if !st.ReadsCyclic {
		t.Error("Stats.ReadsCyclic = false")
	}
}

func TestDRContainsEndForStartTransition(t *testing.T) {
	r := compute(t, lrEqSrc)
	a := r.Auto
	i := a.NtTransIdx(0, a.G.Start())
	if i < 0 {
		t.Fatal("no start transition")
	}
	if !r.DR[i].Has(int(grammar.EOF)) {
		t.Errorf("DR(0, start) = %s, want to contain $end",
			grammar.TerminalSetNames(a.G, r.DR[i]))
	}
}

func TestReadsEdgesOnNullableTransitions(t *testing.T) {
	// S → A B 'c' ; A → 'a' ; B → ε | 'b'.
	// (0, A) reads (r, B) because B is nullable after the A-transition.
	r := compute(t, `
%%
s : a b 'c' ;
a : 'a' ;
b : | 'b' ;
`)
	a := r.Auto
	g := a.G
	iA := a.NtTransIdx(0, g.SymByName("a"))
	if iA < 0 {
		t.Fatal("no (0, a) transition")
	}
	if len(r.Reads[iA]) != 1 {
		t.Fatalf("reads(0,a) = %v, want one edge", r.Reads[iA])
	}
	j := r.Reads[iA][0]
	if a.NtTrans[j].Sym != g.SymByName("b") {
		t.Errorf("reads edge targets %s, want b", r.TransString(int(j)))
	}
	// Read(0,A) = DR(0,A) ∪ Read(r,B) = {'b'} ∪ {'c'} = {'b' 'c'}.
	if got := grammar.TerminalSetNames(g, r.Read[iA]); got != "{'b' 'c'}" {
		t.Errorf("Read(0,a) = %s, want {'b' 'c'}", got)
	}
	if got := grammar.TerminalSetNames(g, r.DR[iA]); got != "{'b'}" {
		t.Errorf("DR(0,a) = %s, want {'b'}", got)
	}
}

func TestIncludesEdge(t *testing.T) {
	// S → A 'x' ; A → B ; B → 'b'.
	// (0,B) includes (0,A) because A → B with empty (hence nullable) γ.
	r := compute(t, `
%%
s : a 'x' ;
a : b ;
b : 'b' ;
`)
	a := r.Auto
	g := a.G
	iB := a.NtTransIdx(0, g.SymByName("b"))
	iA := a.NtTransIdx(0, g.SymByName("a"))
	if iB < 0 || iA < 0 {
		t.Fatal("missing transitions")
	}
	if len(r.Includes[iB]) != 1 || int(r.Includes[iB][0]) != iA {
		t.Errorf("includes(0,b) = %v, want [(0,a)=%d]", r.Includes[iB], iA)
	}
	// Follow(0,B) therefore contains 'x' (from DR(0,A)).
	if !r.Follow[iB].Has(int(g.SymByName("'x'"))) {
		t.Errorf("Follow(0,b) = %s, want to contain 'x'",
			grammar.TerminalSetNames(g, r.Follow[iB]))
	}
	// And LA(B → 'b') in the state after 'b' is {'x'}.
	qb := a.States[0].Goto(g.SymByName("'b'"))
	if got := grammar.TerminalSetNames(g, r.LA[qb][0]); got != "{'x'}" {
		t.Errorf("LA(b→'b') = %s, want {'x'}", got)
	}
}

// Invariant: every LALR(1) look-ahead set is a subset of FOLLOW(lhs),
// since SLR(1) overapproximates LALR(1).
func TestLASubsetOfFollow(t *testing.T) {
	for _, src := range []string{lrEqSrc, notLALRSrc, `
%token id
%%
e : e '+' t | t ;
t : t '*' f | f ;
f : '(' e ')' | id ;
`} {
		r := compute(t, src)
		a := r.Auto
		for q, s := range a.States {
			for i, pi := range s.Reductions {
				if pi == 0 {
					continue // augmented production: LA unused
				}
				lhs := a.G.Prod(pi).Lhs
				if !r.LA[q][i].SubsetOf(a.An.Follow(lhs)) {
					t.Errorf("state %d: LA(%s) = %s ⊄ FOLLOW(%s) = %s",
						q, a.G.ProdString(pi),
						grammar.TerminalSetNames(a.G, r.LA[q][i]),
						a.G.SymName(lhs),
						grammar.TerminalSetNames(a.G, a.An.Follow(lhs)))
				}
			}
		}
	}
}

// Invariant: DR ⊆ Read ⊆ Follow for every nonterminal transition.
func TestSetChainInvariant(t *testing.T) {
	for _, src := range []string{lrEqSrc, notLALRSrc} {
		r := compute(t, src)
		for i := range r.DR {
			if !r.DR[i].SubsetOf(r.Read[i]) {
				t.Errorf("DR ⊄ Read at %s", r.TransString(i))
			}
			if !r.Read[i].SubsetOf(r.Follow[i]) {
				t.Errorf("Read ⊄ Follow at %s", r.TransString(i))
			}
		}
	}
}

func TestStatsAndDump(t *testing.T) {
	r := compute(t, lrEqSrc)
	st := r.Stats()
	if st.NtTransitions != len(r.Auto.NtTrans) {
		t.Error("NtTransitions mismatch")
	}
	if st.DRTotal == 0 || st.LookbackEdges == 0 {
		t.Errorf("degenerate stats: %+v", st)
	}
	if st.IncludesEdges == 0 {
		t.Errorf("grammar has includes edges: %+v", st)
	}
	dump := r.DumpLA()
	if !strings.Contains(dump, "LA(r → l)") {
		t.Errorf("DumpLA missing entries:\n%s", dump)
	}
	if got := r.TransString(0); !strings.HasPrefix(got, "(0, ") {
		t.Errorf("TransString = %q", got)
	}
}

// Every reduction of every state must have at least one lookback edge,
// except the augmented production (reduced only at accept).
func TestLookbackCoverage(t *testing.T) {
	for _, src := range []string{lrEqSrc, notLALRSrc} {
		r := compute(t, src)
		for q, s := range r.Auto.States {
			for i, pi := range s.Reductions {
				if pi == 0 {
					continue
				}
				if len(r.Lookback[q][i]) == 0 {
					t.Errorf("state %d reduction %s has no lookback",
						q, r.Auto.G.ProdString(pi))
				}
			}
		}
	}
}

// ComputeNaive must produce identical sets to Compute on every grammar;
// it only trades the Digraph traversal for chaotic iteration.
func TestComputeNaiveMatchesDigraph(t *testing.T) {
	for _, src := range []string{lrEqSrc, notLALRSrc, `
%%
s : a b c 'x' ;
a : 'a' | ;
b : 'b' | ;
c : 'c' | ;
`} {
		g := grammar.MustParse("t.y", src)
		a := lr0.New(g, nil)
		fast := Compute(a)
		naive := ComputeNaive(a)
		if naive.ReadsStats != nil || naive.IncludesStats != nil {
			t.Error("naive result should carry no SCC stats")
		}
		if naive.NotLRk() || naive.Exact() {
			t.Error("naive result must not claim LR(k) or exactness diagnostics")
		}
		for i := range fast.Follow {
			if !fast.Read[i].Equal(naive.Read[i]) || !fast.Follow[i].Equal(naive.Follow[i]) {
				t.Fatalf("naive/digraph mismatch at %s", fast.TransString(i))
			}
		}
		for q := range fast.LA {
			for i := range fast.LA[q] {
				if !fast.LA[q][i].Equal(naive.LA[q][i]) {
					t.Fatalf("naive/digraph LA mismatch at state %d", q)
				}
			}
		}
	}
}

// Property: on random grammars, Digraph-based and naive-iteration
// computations agree on every set, and repeated runs are deterministic.
func TestQuickComputeConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomReducedGrammar(rng)
		a := lr0.New(g, nil)
		if len(a.States) > 300 {
			return true
		}
		fast := Compute(a)
		again := Compute(a)
		naive := ComputeNaive(a)
		for i := range fast.Follow {
			if !fast.Follow[i].Equal(naive.Follow[i]) || !fast.Follow[i].Equal(again.Follow[i]) {
				return false
			}
		}
		for q := range fast.LA {
			for i := range fast.LA[q] {
				if !fast.LA[q][i].Equal(naive.LA[q][i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func randomReducedGrammar(rng *rand.Rand) *grammar.Grammar {
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
