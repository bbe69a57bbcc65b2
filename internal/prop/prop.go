// Package prop computes LALR(1) look-ahead sets by spontaneous
// generation and propagation — the pre-DeRemer–Pennello technique used
// by early yacc and described as Algorithm 4.63 in Aho–Sethi–Ullman.
// It is the paper's main efficiency foil: correct, but it re-walks
// LR(1)-style closures per kernel item and then iterates a propagation
// graph to a fixpoint, where Digraph does one union per relation edge.
//
// The algorithm:
//
//  1. For every kernel item K of every LR(0) state, compute the LR(1)
//     closure of [K, {#}] for a dummy terminal #.  For every closure
//     item [B → β.Xδ, S], the lookaheads S∖{#} are generated
//     spontaneously for the kernel item B → βX.δ of GOTO(q, X), and if
//     # ∈ S the lookaheads of K propagate there.
//  2. Iterate propagation until no lookahead set changes.
//  3. The look-ahead of a reduction A→ω in q is read off a final LR(1)
//     closure of q's kernel under the converged kernel lookaheads.
package prop

import (
	"repro/internal/bitset"
	"repro/internal/grammar"
	"repro/internal/guard"
	"repro/internal/lr0"
	"repro/internal/obs"
)

// dummy is the virtual terminal # used to detect propagation; it is
// numbered just past the grammar's real terminals.
func dummy(g *grammar.Grammar) int { return g.NumTerminals() }

// Compute returns the LALR(1) look-ahead sets for a by propagation, in
// the method-independent shape: sets[q][i] is the look-ahead for
// a.States[q].Reductions[i].  Rounds reports how many full propagation
// sweeps were needed (the quantity the paper's cost argument is about).
func Compute(a *lr0.Automaton) (sets [][]bitset.Set, rounds int) {
	sets, rounds, err := ComputeBudgeted(a, nil, nil)
	if err != nil {
		// A nil Budget enforces nothing; no error is possible.
		panic(err)
	}
	return sets, rounds
}

// ComputeBudgeted is Compute with the three phases (closure discovery,
// propagation, read-off) bracketed in spans, the propagation-graph size
// and sweep counts recorded into rec (which may be nil), and under a
// resource budget: the discovery and read-off closures checkpoint per
// kernel item and per state, the propagation fixpoint per source node,
// and the propagation-graph edge count trips guard.ResRelationEdges.
// A nil Recorder and a nil Budget make it identical to Compute.
func ComputeBudgeted(a *lr0.Automaton, rec *obs.Recorder, bud *guard.Budget) (sets [][]bitset.Set, rounds int, err error) {
	g := a.G

	// Kernel item lookahead storage: id = kernelBase[q] + ordinal.
	kernelBase := make([]int, len(a.States)+1)
	for q, s := range a.States {
		kernelBase[q+1] = kernelBase[q] + len(s.Kernel)
	}
	nKernel := kernelBase[len(a.States)]
	la := bitset.NewArena(nKernel, g.NumTerminals()).Sets()
	// propagate[id] lists kernel item ids that receive id's lookaheads.
	propagate := make([][]int32, nKernel)

	kernelID := func(q int, it lr0.Item) int {
		s := a.States[q]
		for i, k := range s.Kernel {
			if k == it {
				return kernelBase[q] + i
			}
		}
		panic("kernel item not found")
	}

	// The initial item $accept → . start $end has lookahead {$end}
	// conceptually; with yacc-style augmentation the trailing $end makes
	// this irrelevant, but seed it anyway for faithfulness.
	la[kernelID(0, lr0.Item{Prod: 0, Dot: 0})].Add(int(grammar.EOF))

	// Step 1: discover spontaneous lookaheads and propagation edges.
	sp := rec.Start("prop-discover")
	defer bud.Phase(bud.Phase("prop-discover"))
	cl := newCloser(a)
	seed := bitset.New(g.NumTerminals() + 1)
	edges := 0
	for q, s := range a.States {
		for ord, k := range s.Kernel {
			if cerr := bud.Check(); cerr != nil {
				sp.End()
				return nil, rounds, cerr
			}
			if lerr := bud.Limit(guard.ResRelationEdges, edges); lerr != nil {
				sp.End()
				return nil, rounds, lerr
			}
			id := kernelBase[q] + ord
			seed.Clear()
			seed.Add(dummy(g))
			items := cl.closure([]lr0.Item{k}, []bitset.Set{seed})
			for _, ci := range items {
				rhs := g.Prod(int(ci.item.Prod)).Rhs
				if int(ci.item.Dot) >= len(rhs) {
					continue
				}
				x := rhs[ci.item.Dot]
				to := a.States[q].Goto(x)
				tid := kernelID(to, lr0.Item{Prod: ci.item.Prod, Dot: ci.item.Dot + 1})
				ci.la.ForEach(func(t int) {
					if t == dummy(g) {
						propagate[id] = append(propagate[id], int32(tid))
						edges++
					} else {
						la[tid].Add(t)
					}
				})
			}
		}
	}

	sp.End()

	// Step 2: propagate to fixpoint.  The sweep count is input-dependent
	// (the quantity the paper's cost argument is about), so the fixpoint
	// checkpoints cancellation once per source node of every sweep.
	sp = rec.Start("prop-propagate")
	bud.Phase("prop-propagate")
	unions := 0
	for changed := true; changed; {
		changed = false
		rounds++
		for id := range propagate {
			if cerr := bud.Check(); cerr != nil {
				sp.End()
				return nil, rounds, cerr
			}
			for _, tid := range propagate[id] {
				unions++
				if la[tid].Or(la[id]) {
					changed = true
				}
			}
		}
	}
	sp.End()
	if rec != nil {
		rec.Add(obs.CPropRounds, int64(rounds))
		rec.Add(obs.CPropEdges, int64(edges))
		rec.Add(obs.CBitsetUnions, int64(unions))
	}

	// Step 3: read off reduction lookaheads via one more closure per
	// state, now with the converged kernel lookaheads.  The reduction
	// sets live in one arena indexed by a flat reduction numbering.
	sp = rec.Start("prop-readoff")
	bud.Phase("prop-readoff")
	redBase := make([]int, len(a.States)+1)
	for q, s := range a.States {
		redBase[q+1] = redBase[q] + len(s.Reductions)
	}
	redSets := bitset.NewArena(redBase[len(a.States)], g.NumTerminals()).Sets()
	sets = make([][]bitset.Set, len(a.States))

	for q, s := range a.States {
		if cerr := bud.Check(); cerr != nil {
			sp.End()
			return nil, rounds, cerr
		}
		base := redBase[q]
		sets[q] = redSets[base:redBase[q+1]:redBase[q+1]]
		seeds := make([]bitset.Set, len(s.Kernel))
		for ord := range s.Kernel {
			seeds[ord] = la[kernelBase[q]+ord]
		}
		items := cl.closure(s.Kernel, seeds)
		for _, ci := range items {
			p := g.Prod(int(ci.item.Prod))
			if int(ci.item.Dot) != len(p.Rhs) {
				continue
			}
			ord := reductionOrdinal(s.Reductions, int(ci.item.Prod))
			if ord < 0 {
				panic("closure reduction missing from state")
			}
			ci.la.ForEach(func(t int) {
				if t != dummy(g) {
					sets[q][ord].Add(t)
				}
			})
		}
	}
	sp.End()
	return sets, rounds, nil
}

func reductionOrdinal(reductions []int, prod int) int {
	for i, p := range reductions {
		if p == prod {
			return i
		}
	}
	return -1
}

// closedItem is an LR(1) item with a merged lookahead set.
type closedItem struct {
	item lr0.Item
	la   bitset.Set
}

// closer computes LR(1) closures with per-(prod,dot) merged lookahead
// sets.  It is shared with nothing: package lr1 keeps its own closure
// because canonical construction needs different state identity rules.
type closer struct {
	a *lr0.Automaton
	// scratch: index by production of the closure lookahead set being
	// built this call; -1 epoch markers avoid clearing between calls.
	laOf  []bitset.Set
	epoch []int
	cur   int
	// first is the FIRST(δ) scratch of contribute, cleared per use so
	// the fixpoint loop allocates nothing.
	first bitset.Set
}

func newCloser(a *lr0.Automaton) *closer {
	n := len(a.G.Productions())
	c := &closer{
		a:     a,
		laOf:  bitset.NewArena(n, a.G.NumTerminals()+1).Sets(),
		epoch: make([]int, n),
		first: bitset.New(a.G.NumTerminals() + 1),
	}
	for i := range c.epoch {
		c.epoch[i] = -1
	}
	return c
}

// closure expands kernel items with lookahead seeds into the full LR(1)
// item set of the state, merging lookaheads per item.  Closure items all
// have dot 0, so they are identified by production.
func (c *closer) closure(kernel []lr0.Item, seeds []bitset.Set) []closedItem {
	g, an := c.a.G, c.a.An
	c.cur++
	out := make([]closedItem, 0, len(kernel)+8)
	for i, k := range kernel {
		out = append(out, closedItem{item: k, la: seeds[i]})
	}

	ensure := func(pi int) *bitset.Set {
		if c.epoch[pi] != c.cur {
			c.epoch[pi] = c.cur
			c.laOf[pi].Clear()
		}
		return &c.laOf[pi]
	}

	// Fixpoint over "item contributes lookaheads to the productions of
	// the nonterminal after its dot".  Kernel items contribute once;
	// closure items (dot 0) can feed each other, hence the loop.  The
	// closure membership list is kept in discovery order (not a map), so
	// the fixpoint's convergence path and the returned item order are
	// deterministic.
	inClosure := make([]bool, len(g.Productions()))
	var closureList []int
	for changed := true; changed; {
		changed = false
		contribute := func(it lr0.Item, la bitset.Set) {
			rhs := g.Prod(int(it.Prod)).Rhs
			d := int(it.Dot)
			if d >= len(rhs) || !g.IsNonterminal(rhs[d]) {
				return
			}
			// Lookahead for B-productions: FIRST(δ) plus la if δ nullable.
			c.first.Clear()
			nullable := an.FirstOfSeq(rhs[d+1:], &c.first)
			if nullable {
				c.first.Or(la)
			}
			first := c.first
			for _, pi := range g.ProdsOf(rhs[d]) {
				dst := ensure(pi)
				if dst.Or(first) {
					changed = true
				}
				if !inClosure[pi] {
					inClosure[pi] = true
					closureList = append(closureList, pi)
					changed = true
				}
			}
		}
		for i, k := range kernel {
			contribute(k, seeds[i])
		}
		for i := 0; i < len(closureList); i++ {
			pi := closureList[i]
			contribute(lr0.Item{Prod: int32(pi), Dot: 0}, *ensure(pi))
		}
	}
	for _, pi := range closureList {
		out = append(out, closedItem{item: lr0.Item{Prod: int32(pi), Dot: 0}, la: *ensure(pi)})
	}
	return out
}
