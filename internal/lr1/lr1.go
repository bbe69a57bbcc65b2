// Package lr1 builds the canonical LR(1) collection, the expensive exact
// method the paper compares against.  It provides:
//
//   - the canonical machine itself (for CLR(1) conflict counts and for
//     the "canonical is much bigger" rows of the experiment tables), and
//   - LALR(1) look-ahead sets obtained by merging canonical states with
//     equal cores (Knuth→LALR the hard way), which serve as the
//     ground-truth oracle for the DeRemer–Pennello computation.
//
// States are represented with one lookahead bit set per distinct core
// item, which is a lossless encoding of a set of LR(1) items.
package lr1

import (
	"encoding/binary"
	"sort"

	"repro/internal/bitset"
	"repro/internal/grammar"
	"repro/internal/guard"
	"repro/internal/lr0"
)

// State is one canonical LR(1) state: kernel items paired with their
// lookahead sets.
type State struct {
	Index  int
	Kernel []lr0.Item   // sorted by (Prod, Dot)
	LA     []bitset.Set // parallel to Kernel
	// Transitions are sorted by symbol.
	Transitions []lr0.Transition
	// Reductions pairs production indices with reduce-lookahead sets
	// (kernel finals plus closure ε-items), sorted by production.
	Reductions []Reduction
}

// Reduction is a reduce move of a canonical state.
type Reduction struct {
	Prod int
	LA   bitset.Set
}

// Goto returns the successor of s on x, or -1.
func (s *State) Goto(x grammar.Sym) int {
	for _, tr := range s.Transitions {
		if tr.Sym == x {
			return int(tr.To)
		}
		if tr.Sym > x {
			break
		}
	}
	return -1
}

// Machine is the canonical LR(1) collection.
type Machine struct {
	G      *grammar.Grammar
	An     *grammar.Analysis
	States []*State
}

// New builds the canonical LR(1) collection.  Pass a shared Analysis or
// nil.
func New(g *grammar.Grammar, an *grammar.Analysis) *Machine {
	m, err := NewBudgeted(g, an, nil)
	if err != nil {
		// A nil Budget enforces nothing; no error is possible.
		panic(err)
	}
	return m
}

// NewBudgeted is New under a resource budget.  Canonical construction
// is the pipeline's real explosion risk — state counts can grow
// exponentially on adversarial grammars (Blum) — so the state work-list
// checkpoints cancellation once per state and trips guard.ResLR1States
// when the collection outgrows Limits.MaxLR1States.  A nil Budget makes
// it identical to New.
func NewBudgeted(g *grammar.Grammar, an *grammar.Analysis, bud *guard.Budget) (*Machine, error) {
	if an == nil {
		an = grammar.Analyze(g)
	}
	m := &Machine{G: g, An: an}
	defer bud.Phase(bud.Phase("lr1-states"))
	if err := m.build(bud); err != nil {
		return nil, err
	}
	return m, nil
}

type pending struct {
	kernel []lr0.Item
	la     []bitset.Set
}

func (m *Machine) build(bud *guard.Budget) error {
	g := m.G
	index := map[string]int{}

	intern := func(p pending) int {
		key := stateKey(p)
		if i, ok := index[key]; ok {
			return i
		}
		s := &State{Index: len(m.States), Kernel: p.kernel, LA: p.la}
		index[key] = s.Index
		m.States = append(m.States, s)
		return s.Index
	}

	start := pending{
		kernel: []lr0.Item{{Prod: 0, Dot: 0}},
		la:     []bitset.Set{bitset.FromSlice([]int{int(grammar.EOF)})},
	}
	intern(start)

	for qi := 0; qi < len(m.States); qi++ {
		if err := bud.Check(); err != nil {
			return err
		}
		if err := bud.Limit(guard.ResLR1States, len(m.States)); err != nil {
			return err
		}
		s := m.States[qi]
		items := m.closure(s.Kernel, s.LA)

		// Partition into shifts (grouped by next symbol) and reductions.
		buckets := map[grammar.Sym]*pending{}
		redLA := map[int]*bitset.Set{}
		for _, ci := range items {
			rhs := g.Prod(int(ci.item.Prod)).Rhs
			if int(ci.item.Dot) == len(rhs) {
				if la, ok := redLA[int(ci.item.Prod)]; ok {
					la.Or(ci.la)
				} else {
					cp := ci.la.Copy()
					redLA[int(ci.item.Prod)] = &cp
				}
				continue
			}
			x := rhs[ci.item.Dot]
			b := buckets[x]
			if b == nil {
				b = &pending{}
				buckets[x] = b
			}
			b.kernel = append(b.kernel, lr0.Item{Prod: ci.item.Prod, Dot: ci.item.Dot + 1})
			b.la = append(b.la, ci.la.Copy())
		}

		symbols := make([]grammar.Sym, 0, len(buckets))
		for x := range buckets {
			symbols = append(symbols, x)
		}
		sort.Slice(symbols, func(i, j int) bool { return symbols[i] < symbols[j] })
		for _, x := range symbols {
			b := buckets[x]
			sortPending(b)
			to := intern(*b)
			s.Transitions = append(s.Transitions, lr0.Transition{Sym: x, To: int32(to)})
		}

		prods := make([]int, 0, len(redLA))
		for pi := range redLA {
			prods = append(prods, pi)
		}
		sort.Ints(prods)
		for _, pi := range prods {
			s.Reductions = append(s.Reductions, Reduction{Prod: pi, LA: *redLA[pi]})
		}
	}
	return nil
}

type closedItem struct {
	item lr0.Item
	la   bitset.Set
}

// closure computes the LR(1) closure of the kernel with per-core-item
// merged lookaheads.  Closure items have dot 0 and are keyed by
// production.
func (m *Machine) closure(kernel []lr0.Item, seeds []bitset.Set) []closedItem {
	g, an := m.G, m.An
	out := make([]closedItem, 0, len(kernel)+8)
	for i, k := range kernel {
		out = append(out, closedItem{item: k, la: seeds[i]})
	}
	closLA := map[int]*bitset.Set{}
	for changed := true; changed; {
		changed = false
		contribute := func(it lr0.Item, la bitset.Set) {
			rhs := g.Prod(int(it.Prod)).Rhs
			d := int(it.Dot)
			if d >= len(rhs) || !g.IsNonterminal(rhs[d]) {
				return
			}
			first := bitset.New(g.NumTerminals())
			if an.FirstOfSeq(rhs[d+1:], &first) {
				first.Or(la)
			}
			for _, pi := range g.ProdsOf(rhs[d]) {
				dst := closLA[pi]
				if dst == nil {
					s := bitset.New(g.NumTerminals())
					closLA[pi] = &s
					dst = &s
					changed = true
				}
				if dst.Or(first) {
					changed = true
				}
			}
		}
		for i, k := range kernel {
			contribute(k, seeds[i])
		}
		for pi, la := range closLA {
			contribute(lr0.Item{Prod: int32(pi), Dot: 0}, *la)
		}
	}
	for pi, la := range closLA {
		out = append(out, closedItem{item: lr0.Item{Prod: int32(pi), Dot: 0}, la: *la})
	}
	return out
}

func sortPending(p *pending) {
	idx := make([]int, len(p.kernel))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := p.kernel[idx[a]], p.kernel[idx[b]]
		if ia.Prod != ib.Prod {
			return ia.Prod < ib.Prod
		}
		return ia.Dot < ib.Dot
	})
	kernel := make([]lr0.Item, len(idx))
	la := make([]bitset.Set, len(idx))
	for i, j := range idx {
		kernel[i] = p.kernel[j]
		la[i] = p.la[j]
	}
	p.kernel, p.la = kernel, la
}

func stateKey(p pending) string {
	buf := make([]byte, 0, len(p.kernel)*16)
	var tmp [8]byte
	for i, it := range p.kernel {
		binary.LittleEndian.PutUint32(tmp[0:4], uint32(it.Prod))
		binary.LittleEndian.PutUint32(tmp[4:8], uint32(it.Dot))
		buf = append(buf, tmp[:]...)
		for _, e := range p.la[i].Elems() {
			binary.LittleEndian.PutUint32(tmp[0:4], uint32(e))
			buf = append(buf, tmp[0:4]...)
		}
		buf = append(buf, 0xFF, 0xFF, 0xFF, 0xFF)
	}
	return string(buf)
}

// coreKey identifies a state by its kernel core only, for LALR merging.
func coreKey(kernel []lr0.Item) string {
	buf := make([]byte, 0, len(kernel)*8)
	var tmp [8]byte
	for _, it := range kernel {
		binary.LittleEndian.PutUint32(tmp[0:4], uint32(it.Prod))
		binary.LittleEndian.PutUint32(tmp[4:8], uint32(it.Dot))
		buf = append(buf, tmp[:]...)
	}
	return string(buf)
}

// MergeLALR merges the canonical states by core and returns LALR(1)
// look-ahead sets aligned with the LR(0) automaton a (which must be for
// the same grammar): sets[q][i] is the look-ahead for
// a.States[q].Reductions[i].  This is the ground-truth oracle the tests
// compare the DeRemer–Pennello computation against.
func (m *Machine) MergeLALR(a *lr0.Automaton) [][]bitset.Set {
	lr0Of := map[string]int{}
	for _, s := range a.States {
		lr0Of[coreKey(s.Kernel)] = s.Index
	}
	sets := make([][]bitset.Set, len(a.States))
	for q, s := range a.States {
		sets[q] = make([]bitset.Set, len(s.Reductions))
		for i := range sets[q] {
			sets[q][i] = bitset.New(m.G.NumTerminals())
		}
	}
	for _, s := range m.States {
		q, ok := lr0Of[coreKey(s.Kernel)]
		if !ok {
			panic("lr1: canonical core missing from LR(0) machine")
		}
		reds := a.States[q].Reductions
		for _, red := range s.Reductions {
			ord := -1
			for i, pi := range reds {
				if pi == red.Prod {
					ord = i
					break
				}
			}
			if ord < 0 {
				panic("lr1: canonical reduction missing from LR(0) state")
			}
			sets[q][ord].Or(red.LA)
		}
	}
	return sets
}

// ResolvedConflictCounts reports canonical-machine conflicts remaining
// after yacc precedence resolution, making the counts comparable with
// lalrtable.Tables.Unresolved on the other methods.  unresolved is the
// shift/reduce arbiter (built on lalrtable.ResolveShiftReduce); it
// reports whether the conflict counts as unresolved.  A nil arbiter
// counts every shift/reduce and reduce/reduce entry, before any
// precedence resolution.
func (m *Machine) ResolvedConflictCounts(unresolved func(g *grammar.Grammar, term grammar.Sym, prod int) bool) (sr, rr int) {
	for _, s := range m.States {
		for i, red := range s.Reductions {
			if red.Prod == 0 {
				continue // accept, not a real reduce
			}
			red.LA.ForEach(func(t int) {
				if s.Goto(grammar.Sym(t)) < 0 {
					return
				}
				if unresolved == nil || unresolved(m.G, grammar.Sym(t), red.Prod) {
					sr++
				}
			})
			for j := 0; j < i; j++ {
				if s.Reductions[j].Prod == 0 {
					continue
				}
				inter := red.LA.Copy()
				inter.And(s.Reductions[j].LA)
				rr += inter.Len()
			}
		}
	}
	return sr, rr
}
