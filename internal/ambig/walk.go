package ambig

// The tandem walk.  A configuration is a pair of LR parse stacks that
// have consumed the same terminal string but hold different histories:
// they diverged on the conflicting actions (or re-converged to equal
// stacks after diverging — "convergent" pairs, where any accepted
// completion is immediately a candidate).  Successor computation is the
// LA-gated reduce closure followed by a shift, exactly the
// nondeterministic SR-automaton's moves, for every terminal of a set in
// one pass (closure).
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
	"math/bits"
	"slices"
	"strconv"
	"sync"

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

// scratch is one walk's working set: the stack arena, the extension
// trie, the context enumeration's partial paths, the closure's work
// list with its live sets, two successor sets and the pair queue.
// Walks take it from walkScratch and give it back when they end, so a
// walk grows its slices only past the largest an earlier walk left.
type scratch struct {
	nodes  []node
	trie   []extTok
	steps  []ctxStep
	work   []int32
	live   []uint64 // nw words per work item
	alive  []uint64 // wanted terminals not yet truncated
	want   []uint64
	counts []int32 // the closure's reduce steps per terminal
	sa, sb succs
	queue  []pairCfg
}

// succs is one closure's output: each wanted terminal's successor
// stacks in emission order, and after bucket the same grouped by
// terminal.
type succs struct {
	raw []shiftOut // every successor in emission order
	ts  []uint64   // the terminals with some successor
	cut []uint64   // the terminals whose closure MaxSteps truncated
	// After bucket, terminal t of ts has the stacks by[lo[t]:hi[t]].
	lo, hi []int32
	by     []int32
}

// shiftOut is one successor stack: stack, reached by shifting t.
type shiftOut struct {
	t     int32
	stack int32
}

// walkScratch holds the scratch of finished walks.  The visited set is
// not pooled: its table is a large share of a walk's memory, and the
// largest one would stay resident in the pool between walks.
var walkScratch = sync.Pool{New: func() any { return new(scratch) }}

// reset empties the scratch down to the empty stack.
func (s *scratch) reset() {
	s.nodes = append(s.nodes[:0], node{})
	s.trie = s.trie[:0]
	s.queue = s.queue[:0]
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
	rank := w.ranks()
	return rank[w.nodes[x].state] < rank[w.nodes[y].state]
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

// closure computes, in one pass, the successor stacks of stack for
// every terminal t in want: every way to reduce (repeatedly, each
// reduce gated on its look-ahead) and then shift t.  A work item
// carries the terminals under which its reduce path is still live, the
// wanted set intersected with each applied reduction's look-ahead set,
// so each reduce is applied and pushed once for all the terminals it
// serves.  Per terminal the outputs are exactly those of a closure run
// for that terminal alone, in its order: a terminal's items are a
// breadth-first subtree of the work list.  Outputs are deliberately
// NOT deduplicated — two reduce paths reaching the same stack are two
// distinct parse histories, and that multiplicity is what seeds
// convergent pairs.  MaxSteps bounds each terminal's reduce steps on
// its own: a terminal past it drops out of the live sets, where its
// lone closure would stop.  truncated reports that it cut some
// terminal's enumeration (out.cut says which), in which case a
// negative final verdict must degrade to Undecided.
func (w *Walker) closure(out *succs, stack int32, want []uint64) (truncated bool) {
	nw := w.nw
	out.raw = out.raw[:0]
	out.ts = zeroed(out.ts, nw)
	out.cut = zeroed(out.cut, nw)
	alive := append(w.alive[:0], want...)
	w.counts = zeroed(w.counts, nw*64)
	work := append(w.work[:0], stack)
	live := append(w.live[:0], want...)
	//guardloop:ok each item past the first is a reduce charged to a live terminal: at most 1 + nt·MaxSteps
	for i := 0; i < len(work); i++ {
		s := work[i]
		top := int(w.nodes[s].state)
		for k := 0; k < nw; k++ {
			x := live[i*nw+k] & alive[k] & w.shiftW[top*nw+k]
			out.ts[k] |= x
			//guardloop:ok one step per shifted terminal of the word
			for ; x != 0; x &= x - 1 {
				t := k*64 + bits.TrailingZeros64(x)
				out.raw = append(out.raw, shiftOut{t: int32(t), stack: w.push(s, w.gotoOf(top, grammar.Sym(t)))})
			}
		}
		for r := w.redAt[top]; r < w.redAt[top+1]; r++ {
			// The reduce's live terminals: the item's, less those
			// truncated, gated on the look-ahead.
			base := len(live)
			hit := uint64(0)
			for k := 0; k < nw; k++ {
				x := live[i*nw+k] & alive[k] & w.laW[int(r)*nw+k]
				live = append(live, x)
				hit |= x
			}
			if hit != 0 {
				hit = w.charge(live[base:], alive, out.cut)
			}
			red := w.reds[r]
			if hit == 0 || w.nodes[s].depth-red.rhs < 1 {
				// No live terminal, or the reduce would pop the start
				// state: impossible parse.
				live = live[:base]
				continue
			}
			below := s
			for range red.rhs {
				below = w.nodes[below].parent
			}
			to := w.gotoOf(int(w.nodes[below].state), red.lhs)
			if to < 0 {
				live = live[:base]
				continue
			}
			work = append(work, w.push(below, to))
		}
	}
	w.work, w.live, w.alive = work, live, alive
	for _, x := range out.cut {
		if x != 0 {
			return true
		}
	}
	return false
}

// charge counts one reduce step for each terminal of live.  A terminal
// past MaxSteps steps leaves live and alive and joins cut.  left is
// nonzero when some terminal of live is left.
func (w *Walker) charge(live, alive, cut []uint64) (left uint64) {
	for k := range alive {
		//guardloop:ok one step per live terminal of the word
		for x := live[k]; x != 0; x &= x - 1 {
			t := k*64 + bits.TrailingZeros64(x)
			if w.counts[t]++; w.counts[t] > int32(w.bounds.MaxSteps) {
				bit := uint64(1) << (uint(t) % 64)
				alive[k] &^= bit
				live[k] &^= bit
				cut[k] |= bit
			}
		}
		left |= live[k]
	}
	return left
}

// bucket groups out's successors by terminal, stably.
func (out *succs) bucket() {
	if n := len(out.ts) * 64; len(out.lo) < n {
		out.lo, out.hi = make([]int32, n), make([]int32, n)
	}
	for _, o := range out.raw {
		out.hi[o.t] = 0
	}
	for _, o := range out.raw {
		out.hi[o.t]++
	}
	off := int32(0)
	for k, x := range out.ts {
		//guardloop:ok one step per terminal of the word
		for ; x != 0; x &= x - 1 {
			t := k*64 + bits.TrailingZeros64(x)
			out.lo[t], off = off, off+out.hi[t]
			out.hi[t] = out.lo[t]
		}
	}
	out.by = zeroed(out.by, len(out.raw))
	for _, o := range out.raw {
		out.by[out.hi[o.t]] = o.stack
		out.hi[o.t]++
	}
}

// of returns the successors on terminal t, one of ts, of a bucketed
// closure.
func (out *succs) of(t int) []int32 {
	return out.by[out.lo[t]:out.hi[t]]
}

// zeroed returns s resized to n zero elements, reusing its storage.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// single sets w.want to the one terminal t and returns it.
func (w *Walker) single(t grammar.Sym) []uint64 {
	w.want = zeroed(w.want, w.nw)
	w.want[int(t)/64] = 1 << (uint(t) % 64)
	return w.want
}

// accepts counts the distinct action paths on which the stack accepts
// at end of input: reduce closure under $end look-ahead, then a shift
// of $end into the accept state.
func (w *Walker) accepts(stack int32) (n int, truncated bool) {
	trunc := w.closure(&w.sa, stack, w.single(grammar.EOF))
	for _, o := range w.sa.raw {
		if int(w.nodes[o.stack].state) == w.a.Accept {
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
	work := append(w.steps[:0], ctxStep{state: int32(state), prev: -1})
	defer func() { w.steps = work }()
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
			if len(w.preds(0)) > 0 {
				complete = false
			}
			continue
		}
		for _, e := range w.preds(p.state) {
			if int(p.n)+1+w.dist0[e.from] > maxEdges {
				complete = false
				continue
			}
			// Steps past index MaxPairs are never popped: one there
			// only has to exist to end the enumeration.
			if len(work) <= w.bounds.MaxPairs {
				work = append(work, ctxStep{state: e.from, sym: e.sym, prev: int32(i), n: p.n + 1})
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
	w.scratch = walkScratch.Get().(*scratch)
	w.reset()
	v := w.walk(c)
	w.rec.Add(obs.CAmbigPairs, int64(v.Stats.Pairs))
	w.rec.Add(obs.CAmbigStackNodes, int64(len(w.nodes)-1))
	walkScratch.Put(w.scratch)
	w.scratch = nil
	return v
}

func (w *Walker) walk(c lalrtable.Conflict) Verdict {
	var st Stats
	if w.counter == nil {
		// Cyclic grammar: no finite tree counts, so no candidate could
		// ever clear the second oracle.
		return undecided(c, st, "cyclic grammar: tree oracle unavailable")
	}
	if w.dist0[c.State] < 0 {
		return undecided(c, st, "conflict state unreachable")
	}

	truncated := false // a closure bound cut some enumeration
	lengthCut := false // MaxLen stopped an extension

	var visited pairSet
	queued := 0 // pairs queued, stored or not
	// admit marks the unordered pair {a, b} visited and reports whether
	// it is new and will be stored.  Only the first MaxPairs queued
	// pairs can be popped: the pair budget ends the walk at the next
	// pop.  Later new pairs are counted, for Stats.Frontier, but not
	// stored.  enqueue stores a pair oriented by decimal key.
	admit := func(a, b int32) bool {
		if !visited.add(uint64(min(a, b))<<32 | uint64(max(a, b))) {
			return false
		}
		queued++
		return queued <= w.bounds.MaxPairs
	}
	enqueue := func(a, b, base, ext int32) {
		if a != b && w.keyLess(b, a) {
			a, b = b, a
		}
		w.queue = append(w.queue, pairCfg{a: a, b: b, base: base, ext: ext})
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
		truncated = w.closure(&w.sb, ctx.stack, w.single(c.Terminal)) || truncated
		seeds := w.sb.raw
		base := make([]grammar.Sym, 0, len(ctx.toks)+1)
		base = append(base, ctx.toks...)
		bases[ci] = append(base, c.Terminal)
		for i := 0; i < len(seeds); i++ {
			for j := i + 1; j < len(seeds); j++ {
				if x, y := seeds[i].stack, seeds[j].stack; admit(x, y) {
					enqueue(x, y, int32(ci), -1)
				}
			}
		}
	}

	for qi := 0; qi < queued; qi++ {
		if err := w.bud.Check(); err != nil {
			st.Frontier = queued - qi
			return undecided(c, st, "canceled: "+err.Error())
		}
		if st.Pairs++; st.Pairs > w.bounds.MaxPairs {
			st.Pairs--
			st.Frontier = queued - qi
			return undecided(c, st, "pair budget")
		}
		p := w.queue[qi]
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
				st.Frontier = queued - qi - 1
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
		// Every terminal's successors of a in one closure, then b's for
		// exactly the terminals on which a has some.
		truncated = w.closure(&w.sa, p.a, w.wantAll) || truncated
		w.sa.bucket()
		nextB := &w.sa
		if !conv {
			truncated = w.closure(&w.sb, p.b, w.sa.ts) || truncated
			w.sb.bucket()
			nextB = &w.sb
		}
		for k := range w.nw {
			//guardloop:ok one step per terminal of the word
			for both := w.sa.ts[k] & nextB.ts[k]; both != 0; both &= both - 1 {
				t := k*64 + bits.TrailingZeros64(both)
				xs, ys := w.sa.of(t), nextB.of(t)
				ext := int32(-1) // extended on the first stored pair
				for _, x := range xs {
					for _, y := range ys {
						if !admit(x, y) {
							continue
						}
						if ext < 0 {
							ext = w.extend(p.ext, grammar.Sym(t))
						}
						enqueue(x, y, p.base, ext)
					}
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
	n, ds, err := w.parser.Walk(wit, 2)
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
		DerivA:      ds[0],
		DerivB:      ds[1],
	}
	st.Reason = "witness"
	v.Stats = *st
	return v, nil
}
