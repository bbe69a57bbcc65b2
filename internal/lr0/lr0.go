// Package lr0 constructs the canonical LR(0) collection — the machine
// underlying SLR(1), LALR(1) and the DeRemer–Pennello look-ahead
// computation.
//
// States are identified by their kernel item sets.  Closures are
// represented compactly as the set of nonterminals whose productions are
// closed into the state, which is all the closure/GOTO computation needs
// and keeps state construction allocation-light.
package lr0

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/bitset"
	"repro/internal/grammar"
	"repro/internal/guard"
	"repro/internal/obs"
)

// Item is an LR(0) item: a production with a dot position in [0, len(Rhs)].
type Item struct {
	Prod int32
	Dot  int32
}

// Final reports whether the item's dot is at the end of the production.
func (it Item) final(g *grammar.Grammar) bool {
	return int(it.Dot) == len(g.Prod(int(it.Prod)).Rhs)
}

// Transition is one edge of the automaton.
type Transition struct {
	Sym grammar.Sym
	To  int32
}

// State is one LR(0) state.
type State struct {
	Index  int
	Kernel []Item // sorted by (Prod, Dot)
	// AccessSym is the symbol every path to this state ends with
	// (NoSym for the start state).
	AccessSym grammar.Sym
	// Transitions are sorted by Sym for binary search.
	Transitions []Transition
	// Reductions lists the production indices of final items (kernel
	// finals plus ε-productions of closure nonterminals), sorted.
	Reductions []int
	// closureNts marks nonterminals whose productions are closed into
	// this state (bit set over nonterminal indices).
	closureNts bitset.Set
}

// Goto returns the successor of s on symbol x, or -1.
func (s *State) Goto(x grammar.Sym) int {
	lo, hi := 0, len(s.Transitions)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.Transitions[mid].Sym < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.Transitions) && s.Transitions[lo].Sym == x {
		return int(s.Transitions[lo].To)
	}
	return -1
}

// NtTransition is a nonterminal transition (p --A--> To), the node set of
// the DeRemer–Pennello relations.  Transitions are numbered globally in
// (state, symbol) order.
type NtTransition struct {
	Index int
	From  int
	Sym   grammar.Sym
	To    int
}

// Automaton is the canonical LR(0) collection for a grammar.
type Automaton struct {
	G      *grammar.Grammar
	An     *grammar.Analysis
	States []*State
	// NtTrans lists all nonterminal transitions; NtTransIdx inverts it.
	NtTrans []NtTransition
	// Accept is the accept state, the one whose kernel is
	// {$accept → start $end .}: shifting $end into it accepts.
	Accept int

	// Nonterminal transitions are numbered in (state, symbol) order, so
	// each state's block is contiguous: state q owns global indices
	// [ntBase[q], ntBase[q+1]) and ntSyms holds the transition symbols
	// of that block in ascending order.  NtTransIdx is then one binary
	// search — no per-transition map entries.
	ntBase []int32
	ntSyms []grammar.Sym
}

// New builds the canonical LR(0) collection for g.  An existing Analysis
// may be passed to share FIRST/nullable computation; pass nil to compute
// one.
func New(g *grammar.Grammar, an *grammar.Analysis) *Automaton {
	a, err := NewBudgeted(g, an, nil, nil)
	if err != nil {
		// A nil Budget enforces nothing; no error is possible.
		panic(err)
	}
	return a
}

// NewBudgeted is New with construction phases and machine-size counters
// recorded into rec, under a resource budget: the state work-list
// checkpoints cancellation once per state expansion and trips
// guard.ResLR0States when the collection outgrows Limits.MaxStates.  A
// nil Recorder and a nil Budget make it identical to New.
func NewBudgeted(g *grammar.Grammar, an *grammar.Analysis, rec *obs.Recorder, bud *guard.Budget) (*Automaton, error) {
	if an == nil {
		sp := rec.Start("grammar-analysis")
		an = grammar.Analyze(g)
		sp.End()
	}
	a := &Automaton{G: g, An: an}
	sp := rec.Start("lr0-states")
	defer bud.Phase(bud.Phase("lr0-states"))
	err := a.build(bud)
	sp.End()
	if err != nil {
		return nil, err
	}
	a.Accept = a.WalkString(0, g.Prod(0).Rhs)
	sp = rec.Start("lr0-nt-numbering")
	a.numberNtTransitions()
	sp.End()
	if rec != nil {
		transitions := 0
		for _, s := range a.States {
			transitions += len(s.Transitions)
		}
		rec.Add(obs.CLR0States, int64(len(a.States)))
		rec.Add(obs.CLR0Transitions, int64(transitions))
	}
	return a, nil
}

// leftCorner[A] lists the nonterminals B with a production A → B …,
// the edge relation of the closure computation.  Deduplication uses one
// reusable mark slice with version stamps instead of a per-nonterminal
// map.
func leftCorners(g *grammar.Grammar) [][]int {
	lc := make([][]int, g.NumNonterminals())
	mark := make([]int32, g.NumNonterminals())
	for i := range mark {
		mark[i] = -1
	}
	for i := range lc {
		for _, pi := range g.ProdsOf(g.NtSym(i)) {
			rhs := g.Prod(pi).Rhs
			if len(rhs) > 0 && g.IsNonterminal(rhs[0]) {
				b := g.NtIndex(rhs[0])
				if mark[b] != int32(i) {
					mark[b] = int32(i)
					lc[i] = append(lc[i], b)
				}
			}
		}
	}
	return lc
}

// builder holds the scratch state of one construction: the kernel
// interning table, the per-state shift buckets and the closure
// work-list, all reused across states so steady-state construction of a
// state allocates only what the state retains.
type builder struct {
	a  *Automaton
	lc [][]int

	// intern maps an FNV-1a hash of a kernel to the states whose kernel
	// hashes there; collisions resolve by comparing items.
	intern map[uint64][]int32

	// Shift buckets: bucketOf[sym] is 1+ordinal of sym's bucket for the
	// state being expanded (0 = none yet); syms lists the active
	// symbols, items the per-bucket advanced kernels.  Reset is O(syms).
	bucketOf []int32
	syms     []grammar.Sym
	items    [][]Item

	// closeWork is the closure work-list; closurePool backs the per-
	// state closure bit sets.
	closeWork   []int
	closurePool *bitset.Pool
}

// hashKernel is FNV-1a over the (Prod, Dot) words of a sorted kernel.
func hashKernel(kernel []Item) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, it := range kernel {
		h = (h ^ uint64(uint32(it.Prod))) * prime64
		h = (h ^ uint64(uint32(it.Dot))) * prime64
	}
	return h
}

// state returns the index of the state with the given sorted kernel,
// creating (and closing) it if new.  The kernel slice is scratch owned
// by the caller; it is copied only when a new state is created.
func (b *builder) state(kernel []Item, access grammar.Sym) int {
	h := hashKernel(kernel)
	for _, si := range b.intern[h] {
		if slices.Equal(b.a.States[si].Kernel, kernel) {
			return int(si)
		}
	}
	s := &State{Index: len(b.a.States), Kernel: slices.Clone(kernel), AccessSym: access}
	b.closeState(s)
	b.intern[h] = append(b.intern[h], int32(s.Index))
	b.a.States = append(b.a.States, s)
	return s.Index
}

func (a *Automaton) build(bud *guard.Budget) error {
	g := a.G
	b := &builder{
		a:           a,
		lc:          leftCorners(g),
		intern:      make(map[uint64][]int32),
		bucketOf:    make([]int32, g.NumSymbols()),
		closurePool: bitset.NewPool(g.NumNonterminals()),
	}

	b.state([]Item{{Prod: 0, Dot: 0}}, grammar.NoSym)

	for i := 0; i < len(a.States); i++ {
		// One checkpoint per state expansion bounds the overshoot past a
		// cancellation or limit trip to a single state's fan-out.
		if err := bud.Check(); err != nil {
			return err
		}
		if err := bud.Limit(guard.ResLR0States, len(a.States)); err != nil {
			return err
		}
		s := a.States[i]
		// Reset the shift buckets from the previous state.
		for _, x := range b.syms {
			b.bucketOf[x] = 0
		}
		b.syms = b.syms[:0]
		addShift := func(it Item, x grammar.Sym) {
			bi := b.bucketOf[x]
			if bi == 0 {
				b.syms = append(b.syms, x)
				bi = int32(len(b.syms))
				b.bucketOf[x] = bi
				if len(b.items) < int(bi) {
					b.items = append(b.items, nil)
				}
				b.items[bi-1] = b.items[bi-1][:0]
			}
			b.items[bi-1] = append(b.items[bi-1], Item{Prod: it.Prod, Dot: it.Dot + 1})
		}
		for _, it := range s.Kernel {
			rhs := g.Prod(int(it.Prod)).Rhs
			if int(it.Dot) < len(rhs) {
				addShift(it, rhs[it.Dot])
			} else {
				s.Reductions = append(s.Reductions, int(it.Prod))
			}
		}
		s.closureNts.ForEach(func(nt int) {
			for _, pi := range g.ProdsOf(g.NtSym(nt)) {
				rhs := g.Prod(pi).Rhs
				if len(rhs) == 0 {
					s.Reductions = append(s.Reductions, pi)
				} else {
					addShift(Item{Prod: int32(pi), Dot: 0}, rhs[0])
				}
			}
		})
		slices.Sort(s.Reductions)

		slices.Sort(b.syms)
		s.Transitions = make([]Transition, 0, len(b.syms))
		for _, x := range b.syms {
			kernel := b.items[b.bucketOf[x]-1]
			sortItems(kernel)
			to := b.state(kernel, x)
			s.Transitions = append(s.Transitions, Transition{Sym: x, To: int32(to)})
		}
	}
	return nil
}

// closeState computes the closure nonterminal set of s from its kernel.
func (b *builder) closeState(s *State) {
	g := b.a.G
	s.closureNts = b.closurePool.Get()
	work := b.closeWork[:0]
	add := func(nt int) {
		if !s.closureNts.Has(nt) {
			s.closureNts.Add(nt)
			work = append(work, nt)
		}
	}
	for _, it := range s.Kernel {
		rhs := g.Prod(int(it.Prod)).Rhs
		if int(it.Dot) < len(rhs) && g.IsNonterminal(rhs[it.Dot]) {
			add(g.NtIndex(rhs[it.Dot]))
		}
	}
	for len(work) > 0 {
		nt := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range b.lc[nt] {
			add(c)
		}
	}
	b.closeWork = work[:0]
}

func (a *Automaton) numberNtTransitions() {
	total := 0
	for _, s := range a.States {
		for _, tr := range s.Transitions {
			if a.G.IsNonterminal(tr.Sym) {
				total++
			}
		}
	}
	a.NtTrans = make([]NtTransition, 0, total)
	a.ntBase = make([]int32, len(a.States)+1)
	a.ntSyms = make([]grammar.Sym, 0, total)
	for q, s := range a.States {
		a.ntBase[q] = int32(len(a.NtTrans))
		for _, tr := range s.Transitions {
			if a.G.IsNonterminal(tr.Sym) {
				a.NtTrans = append(a.NtTrans, NtTransition{
					Index: len(a.NtTrans),
					From:  s.Index,
					Sym:   tr.Sym,
					To:    int(tr.To),
				})
				a.ntSyms = append(a.ntSyms, tr.Sym)
			}
		}
	}
	a.ntBase[len(a.States)] = int32(len(a.NtTrans))
}

// NtTransIdx returns the global index of the nonterminal transition
// (state --A-->), or -1 if the state has no transition on A.  State q's
// transitions occupy the contiguous index block [ntBase[q], ntBase[q+1])
// with symbols ascending, so the lookup is a binary search of that
// block.
func (a *Automaton) NtTransIdx(state int, A grammar.Sym) int {
	lo, hi := a.ntBase[state], a.ntBase[state+1]
	block := a.ntSyms[lo:hi]
	if i, ok := slices.BinarySearch(block, A); ok {
		return int(lo) + i
	}
	return -1
}

// Inadequate reports whether state s needs look-ahead to act: it has a
// real reduction and either a terminal shift or a second reduction.
func (a *Automaton) Inadequate(s *State) bool {
	reds := 0
	for _, pi := range s.Reductions {
		if pi != 0 {
			reds++
		}
	}
	if reds != 1 {
		return reds > 1
	}
	for _, tr := range s.Transitions {
		if a.G.IsTerminal(tr.Sym) {
			return true
		}
	}
	return false
}

// WalkString follows transitions from state over the symbols of seq and
// returns the final state, or -1 if some transition is missing (which
// cannot happen for seq = a viable prefix continuation).
func (a *Automaton) WalkString(state int, seq []grammar.Sym) int {
	for _, x := range seq {
		state = a.States[state].Goto(x)
		if state < 0 {
			return -1
		}
	}
	return state
}

// Items returns all items of the state, kernel first, then the
// dot-at-start items of the closure nonterminals.
func (a *Automaton) Items(s *State) []Item {
	items := make([]Item, len(s.Kernel))
	copy(items, s.Kernel)
	s.closureNts.ForEach(func(nt int) {
		for _, pi := range a.G.ProdsOf(a.G.NtSym(nt)) {
			items = append(items, Item{Prod: int32(pi), Dot: 0})
		}
	})
	return items
}

// ClosureNonterminals returns the nonterminal symbols closed into s.
func (a *Automaton) ClosureNonterminals(s *State) []grammar.Sym {
	var out []grammar.Sym
	s.closureNts.ForEach(func(nt int) {
		out = append(out, a.G.NtSym(nt))
	})
	return out
}

// ItemString renders an item as "A → α . β".
func (a *Automaton) ItemString(it Item) string {
	g := a.G
	p := g.Prod(int(it.Prod))
	var b strings.Builder
	b.WriteString(g.SymName(p.Lhs))
	b.WriteString(" →")
	for i, s := range p.Rhs {
		if i == int(it.Dot) {
			b.WriteString(" .")
		}
		b.WriteByte(' ')
		b.WriteString(g.SymName(s))
	}
	if it.final(g) {
		b.WriteString(" .")
	}
	return b.String()
}

// StateString renders a state with its items and transitions.
func (a *Automaton) StateString(s *State) string {
	var b strings.Builder
	fmt.Fprintf(&b, "state %d", s.Index)
	if s.AccessSym != grammar.NoSym {
		fmt.Fprintf(&b, " (via %s)", a.G.SymName(s.AccessSym))
	}
	b.WriteByte('\n')
	for _, it := range a.Items(s) {
		fmt.Fprintf(&b, "    %s\n", a.ItemString(it))
	}
	for _, tr := range s.Transitions {
		fmt.Fprintf(&b, "    %s → state %d\n", a.G.SymName(tr.Sym), tr.To)
	}
	for _, r := range s.Reductions {
		fmt.Fprintf(&b, "    reduce %d (%s)\n", r, a.G.ProdString(r))
	}
	return b.String()
}

func sortItems(items []Item) {
	slices.SortFunc(items, func(a, b Item) int {
		if a.Prod != b.Prod {
			return int(a.Prod) - int(b.Prod)
		}
		return int(a.Dot) - int(b.Dot)
	})
}
