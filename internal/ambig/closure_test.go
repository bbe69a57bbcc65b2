package ambig

// Differential test of the walk's successor step.  The closure computes
// every terminal's successors of a stack in one pass; succOracle
// computes one terminal's on its own, the definition the closure must
// match.  On every stack the golden grammars' walks intern, at the
// default step bound and at one small enough to cut many closures, the
// two must agree terminal by terminal: the same successor stacks in the
// same order, the same truncation, and the same stacks interned.

import (
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/bitset"
	"repro/internal/grammar"
	"repro/internal/grammars"
)

// succOracle appends to dst one successor stack per distinct action
// path: every way to reduce (repeatedly, look-ahead-gated on t) and then
// shift t, not deduplicated.  truncated reports that more than MaxSteps
// reduces cut the enumeration.  buf holds the work list between calls.
func (w *Walker) succOracle(sets [][]bitset.Set, dst []int32, buf *[]int32, stack int32, t grammar.Sym) (out []int32, truncated bool) {
	out = dst
	work := append((*buf)[:0], stack)
	defer func() { *buf = work }()
	steps := 0
	for i := 0; i < len(work); i++ {
		s := work[i]
		top := int(w.nodes[s].state)
		if to := w.gotoOf(top, t); to >= 0 {
			out = append(out, w.push(s, to))
		}
		for ord, pi := range w.a.States[top].Reductions {
			if pi == 0 || !sets[top][ord].Has(int(t)) {
				continue
			}
			if steps++; steps > w.bounds.MaxSteps {
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
	return out, false
}

// TestClosureMatchesPerTerminalSucc checks each golden grammar in a
// parallel subtest; the closure and the oracle run about 13 million
// stack checks over the corpus and its mutants.
func TestClosureMatchesPerTerminalSucc(t *testing.T) {
	gs := goldenGrammars()
	if testing.Short() || raceEnabled {
		gs = gs[:len(grammars.All())]
	}
	var stacks, outs, cuts atomic.Int64
	t.Run("grammars", func(t *testing.T) {
		for _, gg := range gs {
			t.Run(gg.name, func(t *testing.T) {
				t.Parallel()
				s, o, c := checkClosure(t, gg)
				stacks.Add(s)
				outs.Add(o)
				cuts.Add(c)
			})
		}
	})
	t.Logf("%d stacks, %d successors, %d per-terminal truncations", stacks.Load(), outs.Load(), cuts.Load())
	if cuts.Load() == 0 {
		t.Fatal("no closure was truncated: the small step bound no longer exercises per-terminal truncation")
	}
}

// checkClosure walks every open conflict of gg at the default bounds,
// then checks the closure against succOracle on every stack the walk
// interned, on every terminal, at the default and a small step bound.
// Each stack is rebuilt alone in an emptied arena, so that what the
// two intern can be compared too.
func checkClosure(t *testing.T, gg goldenGrammar) (stacks, outs, cuts int64) {
	a, dp, open := openConflicts(t, gg.name, gg.src)
	if len(open) == 0 {
		return
	}
	sets := dp.Sets()
	m := NewMachine(a, sets)
	nt := a.G.NumTerminals()
	all := make([]uint64, m.nw)
	for x := 0; x < nt; x++ {
		all[x/64] |= 1 << (uint(x) % 64)
	}
	var flat, work []int32
	at := make([]int, nt+1)
	cut := make([]bool, nt)
	var states []int
	for _, c := range open {
		w := m.Walker(Config{})
		w.scratch = new(scratch)
		w.reset()
		w.walk(c)
		walked := w.nodes
		w.scratch = new(scratch)
		// fresh rebuilds walked stack s alone in an emptied arena.
		fresh := func(s int32) int32 {
			states = states[:0]
			for ; s != 0; s = walked[s].parent {
				states = append(states, int(walked[s].state))
			}
			w.reset()
			top := int32(0)
			for i := len(states) - 1; i >= 0; i-- {
				top = w.push(top, states[i])
			}
			return top
		}
		for _, maxSteps := range []int{DefaultBounds.MaxSteps, 2} {
			w.bounds.MaxSteps = maxSteps
			for s := int32(1); s < int32(len(walked)); s++ {
				stacks++
				w.closure(&w.sa, fresh(s), all)
				pushed := len(w.nodes)
				top := fresh(s)
				flat = flat[:0]
				for x := 0; x < nt; x++ {
					at[x] = len(flat)
					flat, cut[x] = w.succOracle(sets, flat, &work, top, grammar.Sym(x))
				}
				at[nt] = len(flat)
				outs += int64(len(flat))
				// The closure interns exactly the stacks the
				// per-terminal closures do.
				oracle := len(w.nodes)
				truncated := w.closure(&w.sa, top, all)
				if len(w.nodes) != oracle || pushed != oracle {
					t.Fatalf("s%d MaxSteps=%d, stack %d: the closure interns %d stacks (%d beyond the per-terminal closures'), they %d",
						c.State, maxSteps, s, pushed, len(w.nodes)-oracle, oracle)
				}
				w.sa.bucket()
				anyCut := false
				for x := 0; x < nt; x++ {
					bit := uint64(1) << (uint(x) % 64)
					var got []int32
					if w.sa.ts[x/64]&bit != 0 {
						got = w.sa.of(x)
					}
					gotCut := w.sa.cut[x/64]&bit != 0
					if want := flat[at[x]:at[x+1]]; !slices.Equal(got, want) || gotCut != cut[x] {
						t.Fatalf("s%d %s MaxSteps=%d, stack %d on %s: closure %v (cut %v), per-terminal succ %v (cut %v)",
							c.State, a.G.SymName(c.Terminal), maxSteps, s, a.G.SymName(grammar.Sym(x)), got, gotCut, want, cut[x])
					}
					if gotCut {
						anyCut = true
						cuts++
					}
				}
				if truncated != anyCut {
					t.Fatalf("stack %d MaxSteps=%d: closure reports truncated=%v, its terminals cut=%v", s, maxSteps, truncated, anyCut)
				}
			}
		}
	}
	return stacks, outs, cuts
}
