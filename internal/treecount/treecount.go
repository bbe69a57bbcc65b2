// Package treecount counts the parse trees of an input by dynamic
// programming over spans (Unger-style tabulation).  It is deliberately
// independent of all LR machinery — no automaton, no look-ahead sets,
// no conflict resolution — so it serves as an unbiased oracle:
//
//   - membership: Count > 0 must agree with the LR parser's accept;
//   - ambiguity: Count must equal the GLR recogniser's derivation count.
//
// The recurrence is the textbook one:
//
//	trees(A, i, j)    = Σ over productions A→α of seq(α, i, j)
//	seq(Xβ, i, j)     = Σ over mid of trees(X, i, mid) · seq(β, mid, j)
//	seq(ε, i, j)      = 1 if i == j else 0
//
// memoised on (symbol, span) and (production, dot, span).
//
// Grammars with derivation cycles (A ⇒+ A) have infinitely many trees
// for any input a cycle member derives; New rejects them up front.
// That static check also guarantees the recursion below never re-enters
// a (symbol, span) pair, because re-entry over an identical span would
// exhibit exactly such a cycle.
package treecount

import (
	"fmt"

	"repro/internal/grammar"
	"repro/internal/guard"
)

// ErrCyclic is returned by New when the grammar contains a derivation
// cycle A ⇒+ A, making tree counts infinite.
var ErrCyclic = fmt.Errorf("treecount: grammar has a derivation cycle (A ⇒+ A); tree counts are infinite")

// Counter counts parse trees for one grammar.
type Counter struct {
	g *grammar.Grammar
}

// New builds a Counter for an's grammar, rejecting grammars with
// derivation cycles: cycles of the analysis's derives-alone relation.
func New(an *grammar.Analysis) (*Counter, error) {
	if an.DerivesAlone().Stats.Cyclic() {
		return nil, ErrCyclic
	}
	return &Counter{g: an.G}, nil
}

type symKey struct {
	sym  grammar.Sym
	i, j int16
}

type seqKey struct {
	prod int16
	dot  int16
	i, j int16
}

type run struct {
	g       *grammar.Grammar
	input   []grammar.Sym
	symMemo map[symKey]uint64
	seqMemo map[seqKey]uint64
	bud     *guard.Budget
	err     error // sticky budget violation; counts are meaningless after

	// Same-span re-entry bookkeeping.  Left recursion re-enters an
	// in-progress (symbol, span) or (production, dot, span) cell over
	// the identical span: A ⇒+ ...A... with every sibling on the chain
	// taking an empty span.  New's cycle check guarantees at least one
	// such sibling is non-nullable, so the re-entrant read is always
	// multiplied by zero in the *re-entered* frame's total — that frame
	// completes correctly.  The frames BETWEEN it and the read, though,
	// consume the unfinished value undiluted, so their results must not
	// be memoised.  activeSym/activeSeq map in-progress cells to their
	// recursion depth; minReentry is the shallowest re-entered depth
	// still pending (maxInt when none).
	depth      int
	minReentry int
	activeSym  map[symKey]int
	activeSeq  map[seqKey]int
}

const noReentry = int(^uint(0) >> 1)

// Count returns the number of distinct parse trees of input (without
// $end) from the grammar's start symbol.
func (c *Counter) Count(input []grammar.Sym) (uint64, error) {
	return c.CountBudgeted(input, nil)
}

// CountBudgeted is Count under a resource budget: the span recursion
// checkpoints cancellation on every memo miss, so a done context or a
// passed deadline aborts the tabulation with an error matching
// guard.ErrCanceled.  A nil Budget enforces nothing.
func (c *Counter) CountBudgeted(input []grammar.Sym, bud *guard.Budget) (uint64, error) {
	if len(input) > 30000 {
		return 0, fmt.Errorf("treecount: input too long")
	}
	r := &run{
		g:          c.g,
		input:      input,
		symMemo:    map[symKey]uint64{},
		seqMemo:    map[seqKey]uint64{},
		bud:        bud,
		minReentry: noReentry,
		activeSym:  map[symKey]int{},
		activeSeq:  map[seqKey]int{},
	}
	n := r.trees(c.g.Start(), 0, len(input))
	if r.err != nil {
		return 0, r.err
	}
	return n, nil
}

func (r *run) trees(sym grammar.Sym, i, j int) uint64 {
	if r.g.IsTerminal(sym) {
		if j == i+1 && r.input[i] == sym {
			return 1
		}
		return 0
	}
	key := symKey{sym, int16(i), int16(j)}
	if n, ok := r.symMemo[key]; ok {
		return n
	}
	if d, ok := r.activeSym[key]; ok {
		// Left-recursive re-entry over the same span: return 0 (the
		// value is provably multiplied by zero where it matters) and
		// taint every frame deeper than the re-entered one.
		if d < r.minReentry {
			r.minReentry = d
		}
		return 0
	}
	if r.err != nil {
		return 0
	}
	if err := r.bud.Check(); err != nil {
		r.err = err
		return 0
	}
	d := r.depth
	r.depth++
	r.activeSym[key] = d
	var total uint64
	for _, pi := range r.g.ProdsOf(sym) {
		total += r.seq(pi, 0, i, j)
	}
	delete(r.activeSym, key)
	r.depth--
	if r.minReentry >= d {
		r.symMemo[key] = total
		if r.minReentry == d {
			r.minReentry = noReentry
		}
	}
	return total
}

func (r *run) seq(prod, dot, i, j int) uint64 {
	rhs := r.g.Prod(prod).Rhs
	if dot == len(rhs) {
		if i == j {
			return 1
		}
		return 0
	}
	key := seqKey{int16(prod), int16(dot), int16(i), int16(j)}
	if n, ok := r.seqMemo[key]; ok {
		return n
	}
	if d, ok := r.activeSeq[key]; ok {
		if d < r.minReentry {
			r.minReentry = d
		}
		return 0
	}
	if r.err != nil {
		return 0
	}
	if err := r.bud.Check(); err != nil {
		r.err = err
		return 0
	}
	d := r.depth
	r.depth++
	r.activeSeq[key] = d
	var total uint64
	x := rhs[dot]
	// Terminals fix the split; nonterminals sum over all splits.
	if r.g.IsTerminal(x) {
		if i < j && r.input[i] == x {
			total = r.seq(prod, dot+1, i+1, j)
		}
	} else {
		// Evaluate the remainder before the leading nonterminal: when
		// the remainder cannot match (in particular over the empty
		// suffix of a full-span split), the leading trees() call is
		// skipped, so same-span recursion only follows genuinely
		// nullable siblings — a DAG by New's cycle check.  This is what
		// keeps left-recursive grammars off the re-entry path.
		for mid := i; mid <= j; mid++ {
			rest := r.seq(prod, dot+1, mid, j)
			if rest == 0 {
				continue
			}
			total += r.trees(x, i, mid) * rest
		}
	}
	delete(r.activeSeq, key)
	r.depth--
	if r.minReentry >= d {
		r.seqMemo[key] = total
		if r.minReentry == d {
			r.minReentry = noReentry
		}
	}
	return total
}
