// Package core implements the DeRemer–Pennello algorithm for computing
// LALR(1) look-ahead sets (SIGPLAN '79 / TOPLAS 1982), the primary
// contribution of the reproduced paper.
//
// Given the LR(0) automaton, the look-ahead set of a reduction is
//
//	LA(q, A→ω) = ⋃ { Follow(p,A) : (q,A→ω) lookback (p,A) }
//	Follow(p,A) = Read(p,A) ∪ ⋃ { Follow(p',B) : (p,A) includes (p',B) }
//	Read(p,A)   = DR(p,A)   ∪ ⋃ { Read(r,C)    : (p,A) reads (r,C) }
//
// over the nonterminal transitions of the automaton, where
//
//	DR(p,A)                  = { t : p --A--> r --t--> }
//	(p,A) reads (r,C)        ⇔ p --A--> r --C--> and C nullable
//	(p,A) includes (p',B)    ⇔ B → βAγ, γ ⇒* ε, p' --β--> p
//	(q,A→ω) lookback (p,A)   ⇔ p --ω--> q
//
// Both union systems are solved with the Digraph SCC traversal in time
// linear in the number of relation edges — the efficiency result the
// paper is titled after.
package core

import (
	"fmt"
	"strings"

	"repro/internal/bitset"
	"repro/internal/digraph"
	"repro/internal/grammar"
	"repro/internal/guard"
	"repro/internal/lr0"
	"repro/internal/obs"
)

// Result holds the computed relations and look-ahead sets.  All per-
// transition slices are indexed by the automaton's global nonterminal
// transition numbering.
type Result struct {
	Auto *lr0.Automaton

	DR     []bitset.Set // direct-read sets
	Read   []bitset.Set // solution of the reads system
	Follow []bitset.Set // solution of the includes system

	// Reads and Includes are the relation edge lists (adjacency): an
	// entry j in Reads[i] means transition i reads transition j.
	Reads    [][]int32
	Includes [][]int32

	// Lookback[q][r] lists, for reduction ordinal r of state q (position
	// in state q's Reductions slice), the nonterminal transitions the
	// reduction looks back to.
	Lookback [][][]int32

	// LA[q][r] is the LALR(1) look-ahead set for reduction ordinal r of
	// state q.
	LA [][]bitset.Set

	// drArena backs the DR sets (and, cloned, Read and Follow); redBase
	// is the prefix-sum of per-state reduction counts, the flat index
	// of the LA arena and the lookback CSR.
	drArena *bitset.Arena
	redBase []int

	// ReadsStats and IncludesStats describe the SCC structure of the two
	// traversals.  A cyclic reads relation proves the grammar is not
	// LR(k) for any k.  Includes cycles are normal (any grammar with
	// left recursion through a unit or nullable-tail production has
	// them, e.g. the textbook L=R grammar) and do not affect exactness:
	// Digraph computes the least fixpoint of the union equations, which
	// equals the LALR(1) look-ahead definition.
	ReadsStats    *digraph.Stats
	IncludesStats *digraph.Stats
}

// NotLRk reports whether the reads relation proved the grammar is not
// LR(k) for any k (the paper's theorem on cyclic reads).  Results from
// ComputeNaive carry no SCC information and report false.
func (r *Result) NotLRk() bool { return r.ReadsStats != nil && r.ReadsStats.Cyclic() }

// Exact reports whether the computed LA sets are guaranteed to be the
// exact LALR(1) sets.  This fails only when reads is cyclic — but then
// the grammar is not LR(k) for any k, so reporting its (possibly
// enlarged) conflict set remains sound.
func (r *Result) Exact() bool { return r.ReadsStats != nil && !r.ReadsStats.Cyclic() }

// Compute runs the DeRemer–Pennello algorithm on a, reusing its grammar
// analysis.
func Compute(a *lr0.Automaton) *Result {
	r, err := ComputeBudgeted(a, nil, nil)
	if err != nil {
		// A nil Budget enforces nothing; no error is possible.
		panic(err)
	}
	return r
}

// ComputeBudgeted is Compute with per-phase spans and cost-model
// counters recorded into rec, under a resource budget: the
// relation-construction sweeps checkpoint per nonterminal transition
// and trip guard.ResRelationEdges as edges are built, and both Digraph
// passes run budgeted.  A nil Recorder and a nil Budget make it
// identical to Compute.
func ComputeBudgeted(a *lr0.Automaton, rec *obs.Recorder, bud *guard.Budget) (*Result, error) {
	return computeWith(a, false, rec, bud)
}

// ComputeNaive is Compute with the Digraph traversal replaced by naive
// chaotic iteration over the same equations — the ablation baseline for
// the paper's efficiency claim.  The returned Result carries no SCC
// statistics (ReadsStats and IncludesStats are nil).  The baseline is
// never run on untrusted inputs, so it stays unbudgeted.
func ComputeNaive(a *lr0.Automaton) *Result {
	r, err := computeWith(a, true, nil, nil)
	if err != nil {
		panic(err)
	}
	return r
}

func computeWith(a *lr0.Automaton, naive bool, rec *obs.Recorder, bud *guard.Budget) (*Result, error) {
	r := &Result{Auto: a}
	sp := rec.Start("dr-reads")
	bud.Phase("dr-reads")
	err := r.computeDRAndReads(bud)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = rec.Start("includes-lookback")
	bud.Phase("includes-lookback")
	err = r.computeIncludesAndLookback(bud)
	sp.End()
	if err != nil {
		return nil, err
	}
	if rec != nil {
		r.flushRelationCounters(rec)
	}

	n := len(a.NtTrans)
	// Pass 1: Read = DR solved over reads.  Cloning the DR arena
	// replaces the per-set Copy loop with one memmove.
	sp = rec.Start("solve-reads")
	bud.Phase("solve-reads")
	readArena := r.drArena.Clone()
	r.Read = readArena.Sets()
	if naive {
		digraph.RunNaive(n, sliceRel(r.Reads), r.Read)
	} else {
		r.ReadsStats, err = digraph.RunBudgeted(n, sliceRel(r.Reads), r.Read, rec, bud)
	}
	sp.End()
	if err != nil {
		return nil, err
	}

	// Pass 2: Follow = Read solved over includes.
	sp = rec.Start("solve-includes")
	bud.Phase("solve-includes")
	r.Follow = readArena.Clone().Sets()
	if naive {
		digraph.RunNaive(n, sliceRel(r.Includes), r.Follow)
	} else {
		r.IncludesStats, err = digraph.RunBudgeted(n, sliceRel(r.Includes), r.Follow, rec, bud)
	}
	sp.End()
	if err != nil {
		return nil, err
	}

	// Union of Follow over lookback, into one arena indexed by the
	// global reduction numbering.
	sp = rec.Start("la-union")
	bud.Phase("la-union")
	laUnions := 0
	laArena := bitset.NewArena(r.redBase[len(a.States)], a.G.NumTerminals())
	laSets := laArena.Sets()
	r.LA = make([][]bitset.Set, len(a.States))
	for q, s := range a.States {
		if err := bud.Check(); err != nil {
			sp.End()
			return nil, err
		}
		base := r.redBase[q]
		r.LA[q] = laSets[base : base+len(s.Reductions) : base+len(s.Reductions)]
		for i := range s.Reductions {
			la := r.LA[q][i]
			for _, ti := range r.Lookback[q][i] {
				la.Or(r.Follow[ti])
			}
			laUnions += len(r.Lookback[q][i])
		}
	}
	sp.End()
	if rec != nil {
		rec.Add(obs.CLAUnions, int64(laUnions))
		rec.Add(obs.CBitsetUnions, int64(laUnions))
	}
	return r, nil
}

// flushRelationCounters records the relation sizes (the paper's |X| and
// |R| quantities) after the two construction sweeps.
func (r *Result) flushRelationCounters(rec *obs.Recorder) {
	rec.Add(obs.CNtTransitions, int64(len(r.Auto.NtTrans)))
	dr, reads, includes, lookback := 0, 0, 0, 0
	for _, s := range r.DR {
		dr += s.Len()
	}
	for _, e := range r.Reads {
		reads += len(e)
	}
	for _, e := range r.Includes {
		includes += len(e)
	}
	for _, per := range r.Lookback {
		for _, l := range per {
			lookback += len(l)
		}
	}
	rec.Add(obs.CDRElements, int64(dr))
	rec.Add(obs.CReadsEdges, int64(reads))
	rec.Add(obs.CIncludesEdges, int64(includes))
	rec.Add(obs.CLookbackEdges, int64(lookback))
}

func sliceRel(adj [][]int32) digraph.Succ {
	return func(x int, yield func(int)) {
		for _, y := range adj[x] {
			yield(int(y))
		}
	}
}

// computeDRAndReads fills DR and the reads relation: one scan over the
// transitions of each nonterminal transition's target state.  DR sets
// live in one arena; the reads adjacency is discovered in source order,
// so it packs directly into one flat edge array sliced per source.
// The sweep checkpoints the budget once per nonterminal transition and
// counts reads edges against guard.ResRelationEdges.
func (r *Result) computeDRAndReads(bud *guard.Budget) error {
	a := r.Auto
	g, an := a.G, a.An
	n := len(a.NtTrans)
	r.drArena = bitset.NewArena(n, g.NumTerminals())
	r.DR = r.drArena.Sets()
	counts := make([]int32, n)
	var flat []int32
	for i, nt := range a.NtTrans {
		if err := bud.Check(); err != nil {
			return err
		}
		if err := bud.Limit(guard.ResRelationEdges, len(flat)); err != nil {
			return err
		}
		dr := r.DR[i]
		to := a.States[nt.To]
		for _, tr := range to.Transitions {
			if g.IsTerminal(tr.Sym) {
				dr.Add(int(tr.Sym))
			} else if an.NullableSym(tr.Sym) {
				j := a.NtTransIdx(nt.To, tr.Sym)
				flat = append(flat, int32(j))
				counts[i]++
			}
		}
	}
	r.Reads = sliceByCounts(flat, counts)
	return nil
}

// sliceByCounts carves flat into len(counts) adjacent sub-slices, the
// CSR row view: row i gets counts[i] consecutive entries.
func sliceByCounts(flat []int32, counts []int32) [][]int32 {
	rows := make([][]int32, len(counts))
	off := int32(0)
	for i, c := range counts {
		rows[i] = flat[off : off+c : off+c]
		off += c
	}
	return rows
}

// computeIncludesAndLookback walks each production of each nonterminal
// transition's symbol through the automaton once, discovering both
// relations in the same sweep.  Edges arrive keyed by arbitrary
// sources, so they are gathered as (src, dst) pairs and distributed
// into CSR rows with a stable counting pass — same per-row order as
// direct appends, a handful of allocations total.
// The sweep checkpoints the budget once per nonterminal transition and
// counts includes+lookback edges against guard.ResRelationEdges.
func (r *Result) computeIncludesAndLookback(bud *guard.Budget) error {
	a := r.Auto
	g, an := a.G, a.An
	n := len(a.NtTrans)

	// Flat numbering of reductions across states, for the lookback CSR
	// and the LA arena.
	r.redBase = make([]int, len(a.States)+1)
	for q, s := range a.States {
		r.redBase[q+1] = r.redBase[q] + len(s.Reductions)
	}

	var (
		incSrc, incDst []int32 // includes edge pairs in discovery order
		lbSrc, lbDst   []int32 // lookback edge pairs (src = flat reduction id)
		states         []int   // reusable per-production state path
	)
	for i, nt := range a.NtTrans {
		if err := bud.Check(); err != nil {
			return err
		}
		if err := bud.Limit(guard.ResRelationEdges, len(incSrc)+len(lbSrc)); err != nil {
			return err
		}
		for _, pi := range g.ProdsOf(nt.Sym) {
			rhs := g.Prod(pi).Rhs
			state := nt.From
			states = append(states[:0], state)
			for _, x := range rhs {
				state = a.States[state].Goto(x)
				states = append(states, state)
			}
			q := states[len(rhs)]
			// lookback: (q, B→ω) looks back to (p', B) = transition i.
			ord := reductionOrdinal(a.States[q].Reductions, pi)
			if ord < 0 {
				panic(fmt.Sprintf("lookback: state %d lacks reduction %d", q, pi))
			}
			lbSrc = append(lbSrc, int32(r.redBase[q]+ord))
			lbDst = append(lbDst, int32(i))

			// includes: positions k with rhs[k] a nonterminal and
			// rhs[k+1:] nullable, scanning right to left so the
			// nullable-suffix test stays O(1) per step.
			for k := len(rhs) - 1; k >= 0; k-- {
				x := rhs[k]
				if !g.IsNonterminal(x) {
					break
				}
				j := a.NtTransIdx(states[k], x)
				if j < 0 {
					panic(fmt.Sprintf("includes: missing transition (%d,%s)", states[k], g.SymName(x)))
				}
				incSrc = append(incSrc, int32(j))
				incDst = append(incDst, int32(i))
				if !an.NullableSym(x) {
					break
				}
			}
		}
	}

	r.Includes = csrFromPairs(incSrc, incDst, n)
	lbRows := csrFromPairs(lbSrc, lbDst, r.redBase[len(a.States)])
	r.Lookback = make([][][]int32, len(a.States))
	for q := range a.States {
		r.Lookback[q] = lbRows[r.redBase[q]:r.redBase[q+1]:r.redBase[q+1]]
	}
	return nil
}

// csrFromPairs builds per-source adjacency rows from parallel (src,
// dst) pair slices: a stable counting sort, so each row preserves the
// pairs' discovery order.
func csrFromPairs(src, dst []int32, n int) [][]int32 {
	counts := make([]int32, n)
	for _, s := range src {
		counts[s]++
	}
	flat := make([]int32, len(dst))
	rows := make([][]int32, n)
	off := int32(0)
	for i, c := range counts {
		rows[i] = flat[off : off : off+c]
		off += c
	}
	for k, s := range src {
		rows[s] = append(rows[s], dst[k])
	}
	return rows
}

func reductionOrdinal(reductions []int, prod int) int {
	for i, p := range reductions {
		if p == prod {
			return i
		}
	}
	return -1
}

// Sets returns the look-ahead sets in the method-independent shape used
// by table construction and cross-method equivalence tests:
// sets[q][i] is the look-ahead for Auto.States[q].Reductions[i].
func (r *Result) Sets() [][]bitset.Set { return r.LA }

// RelationStats summarises the per-grammar relation sizes the paper
// reports (Table II of EXPERIMENTS.md).
type RelationStats struct {
	NtTransitions  int
	DRTotal        int // total elements across all DR sets
	ReadsEdges     int
	IncludesEdges  int
	LookbackEdges  int
	ReadsSCCs      int
	IncludesSCCs   int
	ReadsCyclic    bool
	IncludesCyclic bool
	LargestIncSCC  int
}

// Stats computes the relation statistics of the result.
func (r *Result) Stats() RelationStats {
	st := RelationStats{NtTransitions: len(r.Auto.NtTrans)}
	if r.ReadsStats != nil {
		st.ReadsSCCs = r.ReadsStats.SCCs
		st.ReadsCyclic = r.ReadsStats.Cyclic()
	}
	if r.IncludesStats != nil {
		st.IncludesSCCs = r.IncludesStats.SCCs
		st.IncludesCyclic = r.IncludesStats.Cyclic()
		st.LargestIncSCC = r.IncludesStats.LargestSCC
	}
	for _, dr := range r.DR {
		st.DRTotal += dr.Len()
	}
	for _, e := range r.Reads {
		st.ReadsEdges += len(e)
	}
	for _, e := range r.Includes {
		st.IncludesEdges += len(e)
	}
	for _, per := range r.Lookback {
		for _, l := range per {
			st.LookbackEdges += len(l)
		}
	}
	return st
}

// TransString names a nonterminal transition as "(state, SYM)".
func (r *Result) TransString(i int) string {
	nt := r.Auto.NtTrans[i]
	return fmt.Sprintf("(%d, %s)", nt.From, r.Auto.G.SymName(nt.Sym))
}

// DumpLA renders every reduction's look-ahead set, for the generator's
// report mode.
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
