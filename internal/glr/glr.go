// Package glr is a small generalized-LR recogniser over the LALR(1)
// machine: instead of resolving conflicts it forks the parse stack and
// pursues every action whose look-ahead matches (Lang 1974 / Tomita
// 1985, without graph-structured-stack sharing).  It serves two roles
// in the reproduction:
//
//   - a ground truth for conflict diagnoses: an input that exercises an
//     unresolved conflict yields more than one derivation, demonstrating
//     the ambiguity (or the LALR inadequacy) concretely;
//   - a differential oracle: on adequate grammars GLR must agree with
//     the deterministic parser and report exactly one derivation.
//
// Stacks are immutable linked lists without merging, so the recogniser
// is exponential in the worst case; Limits bound the work, which is
// plenty for testing and diagnostics (bison's %glr-parser plays the
// same role in practice).
package glr

import (
	"fmt"
	"strings"

	"repro/internal/bitset"
	"repro/internal/grammar"
	"repro/internal/guard"
	"repro/internal/lr0"
)

// Parser is a GLR recogniser for one automaton + look-ahead assignment.
type Parser struct {
	a    *lr0.Automaton
	sets [][]bitset.Set
	// MaxStacks bounds the number of simultaneous stacks (0 = 4096).
	MaxStacks int
	// MaxSteps bounds reduce applications per input position, guarding
	// against cyclic grammars (0 = 100000).
	MaxSteps int
	// Budget, when non-nil, checkpoints cancellation inside the reduce
	// closure — the loop whose work the Max* fields merely cap.  A done
	// context or passed deadline aborts the recognition with an error
	// matching guard.ErrCanceled.
	Budget *guard.Budget
}

// New builds a GLR recogniser from an automaton and per-reduction
// look-ahead sets (any method's; DeRemer–Pennello's in practice).
func New(a *lr0.Automaton, sets [][]bitset.Set) *Parser {
	return &Parser{a: a, sets: sets}
}

// node is one stack cell.  Stacks are immutable linked lists shared
// between forks; hist is the stack's reduction history, kept only when
// derivations are materialised.
type node struct {
	state  int32
	parent *node
	hist   *histNode
}

// histNode is one applied reduction in a stack's history, shared
// structurally between forked stacks like the state chain itself.
type histNode struct {
	prod int32
	prev *histNode
}

// Derivation is one accepted parse of an input: the production indices
// of the reductions in the order the parser applied them (the reverse
// of the rightmost derivation).
type Derivation struct {
	Prods []int
}

// String renders the derivation as the applied productions joined with
// " ; ".
func (d Derivation) String(g *grammar.Grammar) string {
	parts := make([]string, len(d.Prods))
	for i, pi := range d.Prods {
		parts[i] = g.ProdString(pi)
	}
	return strings.Join(parts, " ; ")
}

// Recognize parses the terminal sequence (without $end) and returns
// the number of distinct rightmost derivations found, 0 if the input
// is not in the language.  It fails when the stack or step limits are
// exceeded (infinitely ambiguous or pathologically ambiguous input).
func (p *Parser) Recognize(input []grammar.Sym) (derivations int, err error) {
	n, _, err := p.Walk(input, 0)
	return n, err
}

// Derivations parses the terminal sequence (without $end) and returns
// up to max distinct derivations of it, in the deterministic order the
// forked walk discovers them.
func (p *Parser) Derivations(input []grammar.Sym, max int) ([]Derivation, error) {
	_, ds, err := p.Walk(input, max)
	return ds, err
}

// Walk is the forked walk behind Recognize and Derivations.  It parses
// the terminal sequence (without $end), counts the accepting stacks —
// the distinct derivations, 0 if the input is not in the language —
// and materialises the first max of them in discovery order.  The
// stack and step limits and the Budget govern it.
func (p *Parser) Walk(input []grammar.Sym, max int) (n int, ds []Derivation, err error) {
	maxStacks := p.MaxStacks
	if maxStacks == 0 {
		maxStacks = 4096
	}
	maxSteps := p.MaxSteps
	if maxSteps == 0 {
		maxSteps = 100000
	}
	a := p.a
	g := a.G

	toks := make([]grammar.Sym, 0, len(input)+1)
	toks = append(toks, input...)
	toks = append(toks, grammar.EOF)

	frontier := []*node{{state: 0}}
	for _, tok := range toks {
		// Reduce closure: apply every reduction whose look-ahead
		// contains tok, breadth-first over the growing frontier.
		steps := 0
		for i := 0; i < len(frontier); i++ {
			if err := p.Budget.Check(); err != nil {
				return 0, nil, err
			}
			top := frontier[i]
			s := a.States[top.state]
			for ord, pi := range s.Reductions {
				if pi == 0 || !p.sets[top.state][ord].Has(int(tok)) {
					continue
				}
				if steps++; steps > maxSteps {
					return 0, nil, fmt.Errorf("glr: step limit exceeded at token %s (cyclic grammar?)", g.SymName(tok))
				}
				prod := g.Prod(pi)
				below := top
				for k := 0; k < len(prod.Rhs); k++ {
					below = below.parent
				}
				to := a.States[below.state].Goto(prod.Lhs)
				if to < 0 {
					continue
				}
				hist := top.hist
				if max > 0 {
					hist = &histNode{prod: int32(pi), prev: hist}
				}
				frontier = append(frontier, &node{state: int32(to), parent: below, hist: hist})
				if len(frontier) > maxStacks {
					return 0, nil, fmt.Errorf("glr: stack limit exceeded at token %s", g.SymName(tok))
				}
			}
		}
		if tok == grammar.EOF {
			for _, top := range frontier {
				// Accept when the automaton can shift $end into the
				// accept state.
				if a.States[top.state].Goto(grammar.EOF) != a.Accept {
					continue
				}
				if n++; n <= max {
					ds = append(ds, Derivation{Prods: materialize(top.hist)})
				}
			}
			return n, ds, nil
		}
		// Shift phase.
		var next []*node
		for _, top := range frontier {
			if to := a.States[top.state].Goto(tok); to >= 0 {
				next = append(next, &node{state: int32(to), parent: top, hist: top.hist})
			}
		}
		if len(next) == 0 {
			return 0, nil, nil
		}
		frontier = next
	}
	return n, ds, nil
}

// materialize flattens a reduction-history chain into application
// order.
func materialize(h *histNode) []int {
	n := 0
	for c := h; c != nil; c = c.prev {
		n++
	}
	out := make([]int, n)
	for c := h; c != nil; c = c.prev {
		n--
		out[n] = int(c.prod)
	}
	return out
}
