// Package cex generates counterexamples for parse-table conflicts: a
// shortest terminal input prefix that drives the automaton into the
// conflicted state, followed by the conflicting look-ahead terminal.
// This is the "show me an input that triggers it" companion to the
// relation-level explanation in package core (and a simplified take on
// bison's -Wcounterexamples).
package cex

import (
	"container/heap"
	"strings"
	"sync"

	"repro/internal/grammar"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
)

// Example is a concrete input demonstrating a conflict.
type Example struct {
	// Prefix is a shortest terminal string that drives the automaton
	// from the start state into the conflict state.
	Prefix []grammar.Sym
	// Terminal is the conflicting look-ahead terminal.
	Terminal grammar.Sym
}

// String renders the example as "tok tok tok • LOOKAHEAD".
func (e *Example) String(g *grammar.Grammar) string {
	var b strings.Builder
	for _, s := range e.Prefix {
		b.WriteString(g.SymName(s))
		b.WriteByte(' ')
	}
	b.WriteString("• ")
	b.WriteString(g.SymName(e.Terminal))
	return b.String()
}

// Generator precomputes per-automaton data shared by all examples.  It
// is safe for concurrent use: the strings and paths it fills in on
// first use are guarded by mu.
type Generator struct {
	a  *lr0.Automaton
	mu sync.Mutex
	// minLen[sym] is the length of the shortest terminal string the
	// symbol derives (terminals: 1), saturating at cap.
	minLen []int
	// minStr caches the materialised shortest strings per symbol.
	minStr map[grammar.Sym][]grammar.Sym
	// dist and via encode shortest terminal paths from state 0:
	// via[q] is the (state, symbol) edge ending a shortest path to q.
	// They are computed on the first ForState call.
	dist []int
	via  []edge
}

type edge struct {
	from int
	sym  grammar.Sym
}

const lenCap = 1 << 20

// NewGenerator builds a counterexample generator for a.
func NewGenerator(a *lr0.Automaton) *Generator {
	g := a.G
	gen := &Generator{
		a:      a,
		minLen: make([]int, g.NumSymbols()),
		minStr: make(map[grammar.Sym][]grammar.Sym),
	}
	for s := range gen.minLen {
		if g.IsTerminal(grammar.Sym(s)) {
			gen.minLen[s] = 1
		} else {
			gen.minLen[s] = lenCap
		}
	}
	for changed := true; changed; {
		changed = false
		for i := range g.Productions() {
			p := g.Prod(i)
			total := 0
			for _, s := range p.Rhs {
				total += gen.minLen[s]
				if total >= lenCap {
					total = lenCap
					break
				}
			}
			if total < gen.minLen[p.Lhs] {
				gen.minLen[p.Lhs] = total
				changed = true
			}
		}
	}
	return gen
}

// shortestPaths runs Dijkstra over the automaton with edge weight
// minLen(symbol), recording predecessor edges.
func (gen *Generator) shortestPaths() {
	n := len(gen.a.States)
	gen.dist = make([]int, n)
	gen.via = make([]edge, n)
	for i := range gen.dist {
		gen.dist[i] = lenCap
		gen.via[i] = edge{from: -1}
	}
	gen.dist[0] = 0
	pq := &prioQueue{{state: 0, dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pqItem)
		if it.dist > gen.dist[it.state] {
			continue
		}
		for _, tr := range gen.a.States[it.state].Transitions {
			w := gen.minLen[tr.Sym]
			if w >= lenCap {
				continue
			}
			nd := it.dist + w
			if nd < gen.dist[tr.To] {
				gen.dist[tr.To] = nd
				gen.via[tr.To] = edge{from: it.state, sym: tr.Sym}
				heap.Push(pq, pqItem{state: int(tr.To), dist: nd})
			}
		}
	}
}

// shortest materialises the shortest terminal string for a symbol.
func (gen *Generator) shortest(s grammar.Sym) []grammar.Sym {
	g := gen.a.G
	if g.IsTerminal(s) {
		return []grammar.Sym{s}
	}
	if out, ok := gen.minStr[s]; ok {
		return out
	}
	// Pick the production realising minLen.
	best := -1
	for _, pi := range g.ProdsOf(s) {
		total := 0
		for _, x := range g.Prod(pi).Rhs {
			total += gen.minLen[x]
			if total >= lenCap {
				total = lenCap
				break
			}
		}
		if total == gen.minLen[s] {
			best = pi
			break
		}
	}
	var out []grammar.Sym
	gen.minStr[s] = out // break cycles defensively (minLen prevents them)
	if best >= 0 {
		for _, x := range g.Prod(best).Rhs {
			out = append(out, gen.shortest(x)...)
		}
	}
	gen.minStr[s] = out
	return out
}

// ForState returns a shortest terminal prefix reaching the state
// (empty but non-nil for the start state), or nil if the state is
// unreachable by terminal-derivable paths (cannot happen for reduced
// grammars).
func (gen *Generator) ForState(state int) []grammar.Sym {
	gen.mu.Lock()
	defer gen.mu.Unlock()
	if gen.dist == nil {
		gen.shortestPaths()
	}
	if gen.dist[state] >= lenCap {
		return nil
	}
	// Collect the symbol path backwards, then expand to terminals.
	var symPath []grammar.Sym
	for q := state; q != 0; q = gen.via[q].from {
		symPath = append(symPath, gen.via[q].sym)
	}
	out := []grammar.Sym{}
	for i := len(symPath) - 1; i >= 0; i-- {
		out = append(out, gen.shortest(symPath[i])...)
	}
	return out
}

// Expand materialises a shortest terminal string deriving each symbol
// of the sequence in turn (terminals map to themselves).
func (gen *Generator) Expand(syms []grammar.Sym) []grammar.Sym {
	gen.mu.Lock()
	defer gen.mu.Unlock()
	out := []grammar.Sym{}
	for _, s := range syms {
		out = append(out, gen.shortest(s)...)
	}
	return out
}

// ForConflict builds the counterexample for a conflict.
func (gen *Generator) ForConflict(c lalrtable.Conflict) *Example {
	prefix := gen.ForState(c.State)
	if prefix == nil {
		return nil
	}
	return &Example{Prefix: prefix, Terminal: c.Terminal}
}
