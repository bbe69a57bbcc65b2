package grammar

import (
	"sync"

	"repro/internal/bitset"
	"repro/internal/digraph"
)

// Analysis caches the standard grammar facts every LR construction needs:
// per-nonterminal nullability and per-symbol FIRST sets, plus FOLLOW sets
// computed on demand (only the SLR baseline needs them).
//
// FIRST and FOLLOW are bit sets over terminal indices (Sym 0..T-1).  Both
// are the paper's F(x) = F'(x) ∪ ⋃{F(y) : x R y}, solved by Digraph over
// a grammar-level Relation: FIRST over LeftCorner, FOLLOW over Includes.
// The lazily built parts are safe to request from concurrent goroutines.
type Analysis struct {
	G        *Grammar
	Nullable []bool       // indexed by nonterminal index
	First    []bitset.Set // indexed by Sym; terminals have singleton sets
	// LeftCorner relates A to B when A → αBβ with α nullable: B can
	// begin A's expansion.  Its Stats are the FIRST solve's, so its
	// cycles are the left-recursive nonterminals.
	LeftCorner Relation

	derivesOnce sync.Once
	derives     Relation
	followOnce  sync.Once
	includes    Relation
	follow      []bitset.Set // indexed by nonterminal index
}

// Relation is a relation over nonterminal indices, kept as rows in
// production order: A R Succ[A][k], realised by production Prod[A][k].
// Stats is the SCC structure of the Digraph run over it.
type Relation struct {
	Succ, Prod [][]int32
	Stats      *digraph.Stats
}

// Witness returns the first production realising the edge a R b, or -1.
func (r *Relation) Witness(a, b int) int {
	for k, y := range r.Succ[a] {
		if int(y) == b {
			return int(r.Prod[a][k])
		}
	}
	return -1
}

// solve runs Digraph over the relation into f, keeping its Stats.
func (r *Relation) solve(f []bitset.Set) {
	r.Stats = digraph.Run(len(r.Succ), func(x int, yield func(int)) {
		for _, y := range r.Succ[x] {
			yield(int(y))
		}
	}, f)
}

// Analyze computes nullability and FIRST sets for g.
func Analyze(g *Grammar) *Analysis {
	a := &Analysis{G: g, Nullable: g.everyRhsHolds(false)}
	// One arena backs every FIRST set: the family is allocated at once
	// over a shared universe, the profile the arena exists for.
	a.First = bitset.NewArena(g.NumSymbols(), g.NumTerminals()).Sets()
	for s := 0; s < g.NumTerminals(); s++ {
		a.First[s].Add(s)
	}
	// The left-corner scan also seeds each FIRST(A) with the terminals
	// that can begin A directly; both of relation's scans add them.
	a.LeftCorner = g.relation(func(p *Production, yield func(from, to Sym)) {
		for _, s := range p.Rhs {
			if g.IsTerminal(s) {
				a.First[p.Lhs].Add(int(s))
				return
			}
			yield(p.Lhs, s)
			if !a.NullableSym(s) {
				return
			}
		}
	})
	a.LeftCorner.solve(a.First[g.NumTerminals():])
	return a
}

// relation builds a Relation from the edges each production yields,
// scanning the productions twice: once to size the rows, once to fill
// them.  edges must yield the same edges on both scans.
func (g *Grammar) relation(edges func(p *Production, yield func(from, to Sym))) Relation {
	n := g.NumNonterminals()
	counts, total := make([]int32, n), int32(0)
	count := func(from, _ Sym) { counts[g.NtIndex(from)]++; total++ }
	for i := range g.prods {
		edges(&g.prods[i], count)
	}
	flat := make([]int32, 2*total)
	rows := make([][]int32, 2*n)
	r := Relation{Succ: rows[:n], Prod: rows[n:]}
	off := int32(0)
	for i, c := range counts {
		r.Succ[i] = flat[off : off : off+c]
		r.Prod[i] = flat[total+off : total+off : total+off+c]
		off += c
	}
	var prod int32
	add := func(from, to Sym) {
		x := g.NtIndex(from)
		r.Succ[x] = append(r.Succ[x], int32(g.NtIndex(to)))
		r.Prod[x] = append(r.Prod[x], prod)
	}
	for i := range g.prods {
		prod = int32(i)
		edges(&g.prods[i], add)
	}
	return r
}

// DerivesAlone relates A to B when A → αBβ with αβ nullable: A derives
// B alone.  A cycle is a derivation A ⇒+ A, which gives the grammar
// infinitely many parse trees for the sentences through it.  Built on
// first use, with a Digraph run over zero-width sets for its SCCs.
func (a *Analysis) DerivesAlone() *Relation {
	a.derivesOnce.Do(func() {
		g := a.G
		a.derives = g.relation(func(p *Production, yield func(from, to Sym)) {
			alone := NoSym // the one symbol that is not nullable, if any
			for _, s := range p.Rhs {
				if !a.NullableSym(s) {
					if alone != NoSym {
						return
					}
					alone = s
				}
			}
			for _, s := range p.Rhs {
				if g.IsNonterminal(s) && (alone == NoSym || s == alone) {
					yield(p.Lhs, s)
				}
			}
		})
		a.derives.solve(make([]bitset.Set, g.NumNonterminals()))
	})
	return &a.derives
}

// Includes relates B to A when A → αBβ with β nullable, so FOLLOW(A) ⊆
// FOLLOW(B): the grammar-level form of the paper's includes relation.
// Its Stats are the FOLLOW solve's.  Built on first use.
func (a *Analysis) Includes() *Relation {
	a.followOnce.Do(a.computeFollow)
	return &a.includes
}

// Follow returns FOLLOW(nt) as a terminal bit set.  FOLLOW sets are
// computed once, on first use, over the augmented grammar, so
// FOLLOW(start) naturally contains $end via $accept → start $end.
// The result must not be modified.
func (a *Analysis) Follow(nt Sym) bitset.Set {
	a.followOnce.Do(a.computeFollow)
	return a.follow[a.G.NtIndex(nt)]
}

func (a *Analysis) computeFollow() {
	g := a.G
	a.follow = bitset.NewArena(g.NumNonterminals(), g.NumTerminals()).Sets()
	a.includes = g.relation(func(p *Production, yield func(from, to Sym)) {
		for j := len(p.Rhs) - 1; j >= 0; j-- {
			s := p.Rhs[j]
			if g.IsNonterminal(s) {
				yield(s, p.Lhs)
			}
			if !a.NullableSym(s) {
				return
			}
		}
	})
	for i := range g.prods {
		rhs := g.prods[i].Rhs
		for j, s := range rhs {
			if g.IsNonterminal(s) {
				a.FirstOfSeq(rhs[j+1:], &a.follow[g.NtIndex(s)])
			}
		}
	}
	a.includes.solve(a.follow)
}

// everyRhsHolds returns, per nonterminal, whether one of its
// productions has every right-hand symbol holding, where a terminal
// holds exactly when term is set: nullable without term, productive
// with it.  A work list visits each symbol occurrence once.
func (g *Grammar) everyRhsHolds(term bool) []bool {
	n := g.NumNonterminals()
	holds, work := make([]bool, n), make([]int32, 0, n)
	mark := func(p int32) {
		if lhs := g.NtIndex(g.prods[p].Lhs); !holds[lhs] {
			holds[lhs] = true
			work = append(work, int32(lhs))
		}
	}
	// pending[p] counts p's right-hand symbols not yet known to hold;
	// occ[off[B]:off[B+1]] lists the production of each occurrence of B.
	pending, off := make([]int32, len(g.prods)), make([]int32, n+1)
	for i := range g.prods {
		for _, s := range g.prods[i].Rhs {
			if g.IsNonterminal(s) {
				off[g.NtIndex(s)]++
			}
			if g.IsNonterminal(s) || !term {
				pending[i]++
			}
		}
	}
	for b := 1; b <= n; b++ {
		off[b] += off[b-1] // the end of B's block, until filled downwards
	}
	occ := make([]int32, off[n])
	for i := range g.prods {
		for _, s := range g.prods[i].Rhs {
			if g.IsNonterminal(s) {
				off[g.NtIndex(s)]--
				occ[off[g.NtIndex(s)]] = int32(i)
			}
		}
		if pending[i] == 0 {
			mark(int32(i))
		}
	}
	//guardloop:ok mark pushes each nonterminal at most once
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range occ[off[b]:off[b+1]] {
			if pending[p]--; pending[p] == 0 {
				mark(p)
			}
		}
	}
	return holds
}

// NullableSym reports whether s ⇒* ε.  Terminals are never nullable.
func (a *Analysis) NullableSym(s Sym) bool {
	if a.G.IsTerminal(s) {
		return false
	}
	return a.Nullable[a.G.NtIndex(s)]
}

// NullableSeq reports whether every symbol in seq is nullable.
func (a *Analysis) NullableSeq(seq []Sym) bool {
	for _, s := range seq {
		if !a.NullableSym(s) {
			return false
		}
	}
	return true
}

// FirstOfSeq unions FIRST(seq) into out and reports whether seq is
// nullable.  This is the primitive canonical-LR(1) closure uses to
// compute FIRST(γ t) look-aheads.
func (a *Analysis) FirstOfSeq(seq []Sym, out *bitset.Set) bool {
	for _, s := range seq {
		out.Or(a.First[s])
		if !a.NullableSym(s) {
			return false
		}
	}
	return true
}

// TerminalSetNames formats a terminal bit set using the grammar's symbol
// names, e.g. "{NUM '+' $end}".
func (a *Analysis) TerminalSetNames(s bitset.Set) string {
	return TerminalSetNames(a.G, s)
}

// TerminalSetNames formats a terminal bit set using g's symbol names.
func TerminalSetNames(g *Grammar, s bitset.Set) string {
	out := "{"
	first := true
	s.ForEach(func(t int) {
		if !first {
			out += " "
		}
		first = false
		out += g.SymName(Sym(t))
	})
	return out + "}"
}
