package ambig

// The tandem walk.  A configuration is a pair of LR parse stacks that
// have consumed the same terminal string but hold different histories:
// they diverged on the conflicting actions (or re-converged to equal
// stacks after diverging — "convergent" pairs, where any accepted
// completion is immediately a candidate).  Successor computation is the
// LA-gated reduce closure followed by a shift, exactly the
// nondeterministic SR-automaton's moves.
//
// Stacks are hash-consed nodes of a per-walk arena: a node is a state
// on top of a parent node, and pushing a state onto a parent returns
// the existing child when there is one.  Equal stack contents are
// therefore equal node ids, a push is O(1) amortised and a pop follows
// parent links, so configurations are pairs of ids rather than copied
// slices keyed by strings.

import (
	"bytes"
	"errors"
	"slices"
	"strconv"

	"repro/internal/grammar"
	"repro/internal/guard"
	"repro/internal/lalrtable"
	"repro/internal/obs"
)

// node is one interned stack: state on top of the stack parent.  Node
// 0 is the empty stack; 0 also ends the first/next child lists, since
// the empty stack is nobody's child.
type node struct {
	state  int32
	parent int32
	depth  int32 // stack length; 0 for the empty stack
	first  int32 // most recently interned child
	next   int32 // next sibling in the parent's child list
}

// resetArena empties the stack arena down to the empty stack.
func (w *Walker) resetArena() {
	w.nodes = append(w.nodes[:0], node{})
	w.trie = w.trie[:0]
}

// push returns the node for stack parent with state on top, interning
// it on first use.
func (w *Walker) push(parent int32, state int) int32 {
	s := int32(state)
	//guardloop:ok a node has at most one child per automaton state
	for c := w.nodes[parent].first; c != 0; c = w.nodes[c].next {
		if w.nodes[c].state == s {
			return c
		}
	}
	id := int32(len(w.nodes))
	w.nodes = append(w.nodes, node{
		state:  s,
		parent: parent,
		depth:  w.nodes[parent].depth + 1,
		next:   w.nodes[parent].first,
	})
	w.nodes[parent].first = id
	return id
}

// keyLess reports whether stack a sorts before stack b (a != b) in the
// order of their decimal keys, the states bottom-up joined by '.' and
// compared as strings.  That is the lexicographic order of the state
// sequences under rank (the order of the states' decimal strings), with
// a proper prefix first: '.' sorts below every digit.  Pair orientation
// follows this order because the candidate test looks at the second
// stack only when the first accepts once.
func (w *Walker) keyLess(a, b int32) bool {
	if w.rank == nil {
		w.rank = decimalRanks(len(w.a.States))
	}
	x, y := a, b
	//guardloop:ok climbs at most the depth difference of two stacks
	for w.nodes[x].depth > w.nodes[y].depth {
		x = w.nodes[x].parent
	}
	//guardloop:ok climbs at most the depth difference of two stacks
	for w.nodes[y].depth > w.nodes[x].depth {
		y = w.nodes[y].parent
	}
	if x == y {
		return w.nodes[a].depth < w.nodes[b].depth
	}
	//guardloop:ok climbs at most the stack depth; the empty stack is a common parent
	for w.nodes[x].parent != w.nodes[y].parent {
		x, y = w.nodes[x].parent, w.nodes[y].parent
	}
	return w.rank[w.nodes[x].state] < w.rank[w.nodes[y].state]
}

// decimalRanks ranks states 0..n-1 by their decimal strings.
func decimalRanks(n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int {
		var bx, by [12]byte
		return bytes.Compare(strconv.AppendInt(bx[:0], int64(x), 10), strconv.AppendInt(by[:0], int64(y), 10))
	})
	rank := make([]int32, n)
	for r, s := range order {
		rank[s] = int32(r)
	}
	return rank
}

// gotoOf is state's transition on x, or -1.
func (w *Walker) gotoOf(state int, x grammar.Sym) int {
	return int(w.gotoTab[state*w.numSyms+int(x)]) - 1
}

// succ appends to dst one successor stack per distinct action path:
// every way to reduce (repeatedly, look-ahead-gated on t) and then
// shift t.  Outputs are deliberately NOT deduplicated — two reduce
// paths reaching the same stack are two distinct parse histories, and
// that multiplicity is what seeds convergent pairs.  truncated reports
// that the closure step bound cut the enumeration, in which case a
// negative final verdict must degrade to Undecided.
func (w *Walker) succ(dst []int32, stack int32, t grammar.Sym) (out []int32, truncated bool) {
	out = dst
	work := append(w.work[:0], stack)
	steps := 0
	for i := 0; i < len(work); i++ {
		s := work[i]
		top := int(w.nodes[s].state)
		st := w.a.States[top]
		if to := w.gotoOf(top, t); to >= 0 {
			out = append(out, w.push(s, to))
		}
		for ord, pi := range st.Reductions {
			if pi == 0 || !w.sets[top][ord].Has(int(t)) {
				continue
			}
			if steps++; steps > w.bounds.MaxSteps {
				w.work = work
				return out, true
			}
			prod := w.g.Prod(pi)
			if int(w.nodes[s].depth)-len(prod.Rhs) < 1 {
				continue // would pop the start state: impossible parse
			}
			below := s
			for range prod.Rhs {
				below = w.nodes[below].parent
			}
			to := w.gotoOf(int(w.nodes[below].state), prod.Lhs)
			if to < 0 {
				continue
			}
			work = append(work, w.push(below, to))
		}
	}
	w.work = work
	return out, false
}

// accepts counts the distinct action paths on which the stack accepts
// at end of input: reduce closure under $end look-ahead, then a shift
// of $end into the accept state.
func (w *Walker) accepts(stack int32) (n int, truncated bool) {
	out, trunc := w.succ(w.bufA[:0], stack, grammar.EOF)
	w.bufA = out
	for _, s := range out {
		if int(w.nodes[s].state) == w.acceptState {
			n++
		}
	}
	return n, trunc
}

// seedCtx is one automaton path from the start state into the conflict
// state: the stack an LR parser holds on entering the state along it,
// plus the shortest terminal expansion of the path's edge symbols.
type seedCtx struct {
	stack int32
	toks  []grammar.Sym
}

// ctxStep is one partial path of the context enumeration, grown
// backward from the conflict state toward the start state: state is the
// deepest state reached, sym the symbol of the edge from state to the
// prev step's state, and n the number of edges taken.
type ctxStep struct {
	state int32
	sym   grammar.Sym
	prev  int32 // -1 at the conflict state
	n     int32
}

// contexts enumerates automaton paths from the start state into state,
// fewest edges first, bounded by MaxContexts paths of at most
// shortest+MaxContextEdges edges.  complete reports that no path was
// cut by either bound — only then can exhausting every seeded pair
// prove the conflict unambiguous.
func (w *Walker) contexts(state int) (out []seedCtx, complete bool) {
	if w.dist0[state] < 0 {
		return nil, false
	}
	maxEdges := w.dist0[state] + w.bounds.MaxContextEdges
	complete = true
	work := []ctxStep{{state: int32(state), prev: -1}}
	popped := 0
	for i := 0; i < len(work) && len(out) < w.bounds.MaxContexts; i++ {
		p := work[i]
		if popped++; popped > w.bounds.MaxPairs {
			return out, false
		}
		if p.state == 0 {
			out = append(out, w.context(work, i))
			// Do not extend past the start state: longer contexts
			// through it revisit 0 and are cut here.
			if len(w.pred[0]) > 0 {
				complete = false
			}
			continue
		}
		for _, e := range w.pred[p.state] {
			if int(p.n)+1+w.dist0[e.from] > maxEdges {
				complete = false
				continue
			}
			// Steps past index MaxPairs are never popped: one there
			// only has to exist to end the enumeration.
			if len(work) <= w.bounds.MaxPairs {
				work = append(work, ctxStep{state: int32(e.from), sym: e.sym, prev: int32(i), n: p.n + 1})
			}
		}
	}
	if len(out) >= w.bounds.MaxContexts {
		complete = false
	}
	return out, complete
}

// context materialises the complete path ending at work[i], which sits
// at the start state: its stack, pushed bottom-up, and the expansion of
// its edge symbols.
func (w *Walker) context(work []ctxStep, i int) seedCtx {
	toks := make([]grammar.Sym, 0, work[i].n)
	stack := w.push(0, 0)
	//guardloop:ok one step per path edge, at most shortest+MaxContextEdges
	for k := i; work[k].prev >= 0; k = int(work[k].prev) {
		toks = append(toks, work[k].sym)
		stack = w.push(stack, int(work[work[k].prev].state))
	}
	return seedCtx{stack: stack, toks: w.gen.Expand(toks)}
}

// extTok is one node of the extension trie: the terminals consumed
// beyond the conflict look-ahead, linked back to their prefix.
type extTok struct {
	sym  grammar.Sym
	prev int32 // -1 for the first token
	n    int32 // extension length up to and including sym
}

// extend returns a trie node for extension ext followed by t.
func (w *Walker) extend(ext int32, t grammar.Sym) int32 {
	w.trie = append(w.trie, extTok{sym: t, prev: ext, n: w.extLen(ext) + 1})
	return int32(len(w.trie) - 1)
}

// extLen is the length of extension ext (-1 is the empty extension).
func (w *Walker) extLen(ext int32) int32 {
	if ext < 0 {
		return 0
	}
	return w.trie[ext].n
}

// witness spells out a candidate sentence: base, then extension ext.
func (w *Walker) witness(base []grammar.Sym, ext int32) []grammar.Sym {
	wit := make([]grammar.Sym, len(base)+int(w.extLen(ext)))
	copy(wit, base)
	i := len(wit) - 1
	//guardloop:ok one step per extension token, at most MaxLen
	for e := ext; e >= 0; e = w.trie[e].prev {
		wit[i] = w.trie[e].sym
		i--
	}
	return wit
}

// pairCfg is one configuration.  a == b is a convergent pair: equal
// stack contents, divergent histories.
type pairCfg struct {
	a, b int32 // stacks, a's decimal key ordered no later than b's
	base int32 // index into the per-context prefixes
	ext  int32 // extension trie node, -1 for none
}

// pairSet is the walk's visited set of unordered stack pairs, keyed
// (min id, max id).  Open addressing with linear probing measured a
// fifth faster than a map[uint64]struct{} on lua's walks.
type pairSet struct {
	slots []uint64 // key+1, 0 when empty
	n     int
}

// add inserts k and reports whether it was new.
func (s *pairSet) add(k uint64) bool {
	if 2*(s.n+1) > len(s.slots) {
		old := s.slots
		s.slots = make([]uint64, max(1024, 2*len(old)))
		s.n = 0
		for _, v := range old {
			if v != 0 {
				s.add(v - 1)
			}
		}
	}
	mask := uint64(len(s.slots) - 1)
	//guardloop:ok the table is at most half full
	for i := (k * 0x9E3779B97F4A7C15) >> 32 & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = k + 1
			s.n++
			return true
		case k + 1:
			return false
		}
	}
}

// Walk runs the bounded tandem search from one unresolved conflict and
// returns its proven verdict.  Budget cancellation and bound exhaustion
// surface as Undecided verdicts (with the reason in Stats), never as
// errors: the caller always gets a reportable outcome.
func (w *Walker) Walk(c lalrtable.Conflict) Verdict {
	w.rec.Add(obs.CAmbigWalks, 1)
	sp := w.rec.Start("ambig.walk")
	defer sp.End()
	w.resetArena()
	v := w.walk(c)
	w.rec.Add(obs.CAmbigPairs, int64(v.Stats.Pairs))
	w.rec.Add(obs.CAmbigStackNodes, int64(len(w.nodes)-1))
	return v
}

func (w *Walker) walk(c lalrtable.Conflict) Verdict {
	var st Stats
	if w.counter == nil {
		// Cyclic grammar: no finite tree counts, so no candidate could
		// ever clear the second oracle.
		return undecided(c, st, "cyclic grammar: tree oracle unavailable")
	}
	if w.acceptState < 0 || w.dist0[c.State] < 0 {
		return undecided(c, st, "conflict state unreachable")
	}

	truncated := false // a closure bound cut some enumeration
	lengthCut := false // MaxLen stopped an extension

	var queue []pairCfg
	var visited pairSet
	// fresh marks the unordered pair {a, b} visited, reporting whether
	// it was new; enqueue queues it oriented by decimal key.
	fresh := func(a, b int32) bool {
		return visited.add(uint64(min(a, b))<<32 | uint64(max(a, b)))
	}
	enqueue := func(a, b, base, ext int32) {
		if a != b && w.keyLess(b, a) {
			a, b = b, a
		}
		queue = append(queue, pairCfg{a: a, b: b, base: base, ext: ext})
	}

	// Seed: under each context (automaton path into the conflict
	// state), the conflicting actions fan the stack into one successor
	// per action path; every unordered pair of those is a divergence to
	// chase.  Multiple contexts matter because LALR look-ahead merges
	// them: the reduce branch may only survive the look-ahead under a
	// deeper stack than the shortest one.  Duplicated contents across
	// action paths seed convergent pairs.
	ctxs, ctxComplete := w.contexts(c.State)
	st.Contexts = len(ctxs)
	bases := make([][]grammar.Sym, len(ctxs))
	for ci, ctx := range ctxs {
		seeds, trunc := w.succ(w.bufB[:0], ctx.stack, c.Terminal)
		w.bufB = seeds
		truncated = truncated || trunc
		base := make([]grammar.Sym, 0, len(ctx.toks)+1)
		base = append(base, ctx.toks...)
		bases[ci] = append(base, c.Terminal)
		for i := 0; i < len(seeds); i++ {
			for j := i + 1; j < len(seeds); j++ {
				if fresh(seeds[i], seeds[j]) {
					enqueue(seeds[i], seeds[j], int32(ci), -1)
				}
			}
		}
	}

	for qi := 0; qi < len(queue); qi++ {
		if err := w.bud.Check(); err != nil {
			st.Frontier = len(queue) - qi
			return undecided(c, st, "canceled: "+err.Error())
		}
		if st.Pairs++; st.Pairs > w.bounds.MaxPairs {
			st.Pairs--
			st.Frontier = len(queue) - qi
			return undecided(c, st, "pair budget")
		}
		p := queue[qi]
		conv := p.a == p.b
		extLen := int(w.extLen(p.ext))
		if extLen > st.MaxLen {
			st.MaxLen = extLen
		}

		// Candidate test: both sides accept the consumed sentence (a
		// convergent pair needs only its one stack to accept; a single
		// side accepting two ways is likewise its own witness).
		accA, tA := w.accepts(p.a)
		truncated = truncated || tA
		candidate := accA >= 2 || (conv && accA >= 1)
		if !candidate && !conv && accA >= 1 {
			accB, tB := w.accepts(p.b)
			truncated = truncated || tB
			candidate = accB >= 1
		}
		if candidate {
			st.Candidates++
			v, fatal := w.confirm(c, w.witness(bases[p.base], p.ext), &st)
			if fatal != nil {
				st.Frontier = len(queue) - qi - 1
				return undecided(c, st, "canceled: "+fatal.Error())
			}
			if v != nil {
				return *v
			}
			// Spurious accept (LALR look-ahead is a superset of LR(1)):
			// the walk accepted a sentence the grammar derives at most
			// once.  Keep searching.
		}

		if extLen >= w.bounds.MaxLen {
			lengthCut = true
			continue
		}
		for t := grammar.Sym(1); int(t) < w.g.NumTerminals(); t++ {
			nextA, tA := w.succ(w.bufA[:0], p.a, t)
			w.bufA = nextA
			truncated = truncated || tA
			if len(nextA) == 0 {
				continue
			}
			nextB := nextA
			if !conv {
				var tB bool
				nextB, tB = w.succ(w.bufB[:0], p.b, t)
				w.bufB = nextB
				truncated = truncated || tB
				if len(nextB) == 0 {
					continue
				}
			}
			ext := int32(-1) // extended on the first fresh pair
			for _, x := range nextA {
				for _, y := range nextB {
					if !fresh(x, y) {
						continue
					}
					if ext < 0 {
						ext = w.extend(p.ext, t)
					}
					enqueue(x, y, p.base, ext)
				}
			}
		}
	}

	if truncated {
		return undecided(c, st, "truncated")
	}
	if lengthCut {
		return undecided(c, st, "length bound")
	}
	if !ctxComplete {
		return undecided(c, st, "context bound")
	}
	st.Reason = "exhausted"
	return Verdict{Conflict: c, Kind: Unambiguous, Stats: st}
}

// confirm cross-checks a candidate witness against both oracles.  It
// returns a non-nil Verdict only when BOTH the GLR recogniser and the
// tree counter report more than one parse.  A budget cancellation is
// fatal (aborts the walk); any other oracle failure merely rejects the
// candidate.
func (w *Walker) confirm(c lalrtable.Conflict, wit []grammar.Sym, st *Stats) (*Verdict, error) {
	n, err := w.parser.Recognize(wit)
	if err != nil {
		if errors.Is(err, guard.ErrCanceled) {
			return nil, err
		}
		return nil, nil // oracle capped out on this sentence; not proven
	}
	if n < 2 {
		return nil, nil
	}
	trees, err := w.counter.CountBudgeted(wit, w.bud)
	if err != nil {
		if errors.Is(err, guard.ErrCanceled) {
			return nil, err
		}
		return nil, nil
	}
	if trees < 2 {
		return nil, nil
	}
	w.rec.Add(obs.CAmbigWitnesses, 1)
	v := &Verdict{
		Conflict:    c,
		Kind:        Ambiguous,
		Witness:     wit,
		Derivations: n,
		Trees:       trees,
	}
	if ds, derr := w.parser.Derivations(wit, 2); derr == nil && len(ds) >= 2 {
		v.DerivA, v.DerivB = ds[0], ds[1]
	}
	st.Reason = "witness"
	v.Stats = *st
	return v, nil
}
