// Package lalrtable turns an LR(0) automaton plus per-reduction
// look-ahead sets (from any method: SLR, DeRemer–Pennello, propagation,
// canonical merge) into ACTION/GOTO parse tables, resolving conflicts
// with yacc's precedence and associativity rules and accounting for
// every conflict encountered.
package lalrtable

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitset"
	"repro/internal/grammar"
	"repro/internal/guard"
	"repro/internal/lr0"
	"repro/internal/obs"
)

// Action is one ACTION-table entry, encoded in an int32:
// error (zero value), shift-to-state, reduce-by-production, or accept.
type Action int32

// ActionKind discriminates Action encodings.
type ActionKind uint8

// Action kinds.
const (
	Error ActionKind = iota
	Shift
	Reduce
	Accept
)

// MakeShift returns a shift action to the given state.
func MakeShift(state int) Action { return Action(state<<2 | 1) }

// MakeReduce returns a reduce action by the given production.
func MakeReduce(prod int) Action { return Action(prod<<2 | 2) }

// MakeAccept returns the accept action.
func MakeAccept() Action { return Action(3) }

// Kind returns the action's kind.
func (a Action) Kind() ActionKind {
	switch a & 3 {
	case 1:
		return Shift
	case 2:
		return Reduce
	case 3:
		return Accept
	default:
		return Error
	}
}

// Target returns the shift target state or reduce production index.
func (a Action) Target() int { return int(a >> 2) }

func (a Action) String() string {
	switch a.Kind() {
	case Shift:
		return fmt.Sprintf("s%d", a.Target())
	case Reduce:
		return fmt.Sprintf("r%d", a.Target())
	case Accept:
		return "acc"
	default:
		return "."
	}
}

// ConflictKind classifies a conflict.
type ConflictKind uint8

// Conflict kinds.
const (
	ShiftReduce ConflictKind = iota
	ReduceReduce
)

// Resolution records how a conflict was settled.
type Resolution uint8

// Conflict resolutions.  The *Default resolutions are the ones yacc
// counts and reports as real conflicts; precedence resolutions are
// silent.
const (
	ResolvedShift    Resolution = iota // precedence chose shift
	ResolvedReduce                     // precedence chose reduce
	ResolvedError                      // %nonassoc made the entry an error
	DefaultShift                       // no precedence: shift wins (reported)
	DefaultEarlyRule                   // reduce/reduce: earlier production wins (reported)
)

func (r Resolution) String() string {
	switch r {
	case ResolvedShift:
		return "shift (precedence)"
	case ResolvedReduce:
		return "reduce (precedence)"
	case ResolvedError:
		return "error (%nonassoc)"
	case DefaultShift:
		return "shift (default)"
	default:
		return "earlier rule (default)"
	}
}

// Conflict is one conflicted ACTION entry.
type Conflict struct {
	State      int
	Terminal   grammar.Sym
	Kind       ConflictKind
	ShiftTo    int   // shift target for ShiftReduce, -1 otherwise
	Prods      []int // competing productions (1 for SR, ≥2 for RR)
	Resolution Resolution
}

// Tables is a complete LR parse table.
type Tables struct {
	G         *grammar.Grammar
	NumStates int
	// Action is indexed [state][terminal].
	Action [][]Action
	// Goto is indexed [state][nonterminal index]; -1 means no entry.
	Goto [][]int32
	// Conflicts lists every conflicted entry in encounter order.
	Conflicts []Conflict
	// AcceptState is the state holding the item $accept → start . $end.
	AcceptState int
}

// Unresolved returns the conflicts not silenced by precedence — the
// numbers yacc prints as "N shift/reduce, M reduce/reduce".
func (t *Tables) Unresolved() (sr, rr int) {
	for _, c := range t.Conflicts {
		switch c.Resolution {
		case DefaultShift:
			sr++
		case DefaultEarlyRule:
			rr++
		}
	}
	return sr, rr
}

// Adequate reports whether the tables have no unresolved conflicts,
// i.e. the grammar is deterministically parsable with this look-ahead
// method (after declared precedence).
func (t *Tables) Adequate() bool {
	sr, rr := t.Unresolved()
	return sr == 0 && rr == 0
}

// Build constructs tables from the automaton and look-ahead sets, where
// sets[q][i] is the look-ahead for a.States[q].Reductions[i] (the shape
// every method in this module produces).
func Build(a *lr0.Automaton, sets [][]bitset.Set) *Tables {
	t, err := BuildBudgeted(a, sets, nil, nil)
	if err != nil {
		// A nil Budget enforces nothing; no error is possible.
		panic(err)
	}
	return t
}

// BuildBudgeted is Build with a table-build span and entry/conflict
// counters recorded into rec, under a resource budget: the fill loop
// checkpoints cancellation once per state row and trips
// guard.ResTableEntries when the installed ACTION/GOTO entry count
// crosses Limits.MaxTableEntries.  A nil Recorder and a nil Budget make
// it identical to Build.
func BuildBudgeted(a *lr0.Automaton, sets [][]bitset.Set, rec *obs.Recorder, bud *guard.Budget) (*Tables, error) {
	sp := rec.Start("table-build")
	defer bud.Phase(bud.Phase("table-build"))
	t, err := buildTables(a, sets, bud)
	sp.End()
	if err != nil {
		return nil, err
	}
	if rec != nil {
		entries := 0
		for q := range t.Action {
			for _, act := range t.Action[q] {
				if act.Kind() != Error {
					entries++
				}
			}
		}
		rec.Add(obs.CTableActions, int64(entries))
		rec.Add(obs.CTableConflicts, int64(len(t.Conflicts)))
	}
	return t, nil
}

func buildTables(a *lr0.Automaton, sets [][]bitset.Set, bud *guard.Budget) (*Tables, error) {
	g := a.G
	t := &Tables{
		G:           g,
		NumStates:   len(a.States),
		Action:      make([][]Action, len(a.States)),
		Goto:        make([][]int32, len(a.States)),
		AcceptState: -1,
	}
	numT, numN := g.NumTerminals(), g.NumNonterminals()

	entries := 0 // ACTION + GOTO entries installed, for ResTableEntries
	for q, s := range a.States {
		if err := bud.Check(); err != nil {
			return nil, err
		}
		if err := bud.Limit(guard.ResTableEntries, entries); err != nil {
			return nil, err
		}
		row := make([]Action, numT)
		grow := make([]int32, numN)
		for i := range grow {
			grow[i] = -1
		}
		entries += len(s.Transitions)
		for _, tr := range s.Transitions {
			if g.IsTerminal(tr.Sym) {
				if tr.Sym == grammar.EOF && int(tr.To) == a.Accept {
					row[tr.Sym] = MakeAccept()
					t.AcceptState = q
				} else {
					row[tr.Sym] = MakeShift(int(tr.To))
				}
			} else {
				grow[g.NtIndex(tr.Sym)] = tr.To
			}
		}
		poisoned := make([]bool, numT) // %nonassoc error entries stay errors
		for i, pi := range s.Reductions {
			if pi == 0 {
				continue // the augmented production never reduces
			}
			sets[q][i].ForEach(func(term int) {
				entries++
				t.place(q, row, poisoned, grammar.Sym(term), pi)
			})
		}
		t.Action[q] = row
		t.Goto[q] = grow
	}
	return t, nil
}

// place installs "reduce by prod on term" into the row, resolving any
// collision with the existing entry.
func (t *Tables) place(state int, row []Action, poisoned []bool, term grammar.Sym, prod int) {
	g := t.G
	switch cur := row[term]; cur.Kind() {
	case Error:
		if poisoned[term] {
			// A %nonassoc resolution already made this entry an error;
			// it must not be resurrected by another reduction.
			t.Conflicts = append(t.Conflicts, Conflict{
				State: state, Terminal: term, Kind: ShiftReduce,
				ShiftTo: -1, Prods: []int{prod}, Resolution: ResolvedError,
			})
			return
		}
		row[term] = MakeReduce(prod)

	case Shift:
		c := Conflict{State: state, Terminal: term, Kind: ShiftReduce,
			ShiftTo: cur.Target(), Prods: []int{prod}}
		c.Resolution = ResolveShiftReduce(g, term, prod)
		switch c.Resolution {
		case ResolvedReduce:
			row[term] = MakeReduce(prod)
		case ResolvedError:
			row[term] = Action(0)
			poisoned[term] = true
		}
		t.Conflicts = append(t.Conflicts, c)

	case Reduce:
		old := cur.Target()
		c := Conflict{State: state, Terminal: term, Kind: ReduceReduce,
			ShiftTo: -1, Prods: []int{old, prod}, Resolution: DefaultEarlyRule}
		if prod < old {
			row[term] = MakeReduce(prod)
		}
		t.Conflicts = append(t.Conflicts, c)

	case Accept:
		// A reduction competes with accepting (e.g. a unit cycle through
		// the start symbol, S → S).  Accept wins; report as
		// shift/reduce, accept being the shift of $end.
		t.Conflicts = append(t.Conflicts, Conflict{
			State: state, Terminal: term, Kind: ShiftReduce,
			ShiftTo: -1, Prods: []int{prod}, Resolution: DefaultShift,
		})
	}
}

// ResolveShiftReduce applies yacc's precedence rules to a shift/reduce
// collision between terminal term and production prod: higher
// precedence wins, equal precedence resolves by associativity (%left →
// reduce, %right → shift, %nonassoc → error), and without declared
// precedence on both sides the shift wins and the conflict is reported.
// It is shared with the canonical-LR(1) conflict accounting so all
// methods are compared after the same resolution.
func ResolveShiftReduce(g *grammar.Grammar, term grammar.Sym, prod int) Resolution {
	tp, pp := g.TermPrec(term), g.Prod(prod).Prec
	switch {
	case !tp.Defined() || !pp.Defined():
		return DefaultShift
	case pp.Level > tp.Level:
		return ResolvedReduce
	case pp.Level < tp.Level:
		return ResolvedShift
	default:
		switch tp.Assoc {
		case grammar.AssocLeft:
			return ResolvedReduce
		case grammar.AssocRight:
			return ResolvedShift
		default:
			return ResolvedError
		}
	}
}

// ConflictString renders a conflict like a yacc report line.
func (t *Tables) ConflictString(c Conflict) string {
	var b strings.Builder
	fmt.Fprintf(&b, "state %d, token %s: ", c.State, t.G.SymName(c.Terminal))
	if c.Kind == ShiftReduce {
		fmt.Fprintf(&b, "shift/reduce (shift %d vs reduce %s)", c.ShiftTo, t.G.ProdString(c.Prods[0]))
	} else {
		fmt.Fprintf(&b, "reduce/reduce (%s vs %s)", t.G.ProdString(c.Prods[0]), t.G.ProdString(c.Prods[1]))
	}
	fmt.Fprintf(&b, " → %s", c.Resolution)
	return b.String()
}

// Stats summarises table occupancy, the quantity table-compression
// experiments care about.
type Stats struct {
	States        int
	ActionEntries int // non-error ACTION entries
	GotoEntries   int
	ShiftEntries  int
	ReduceEntries int
	// DefaultableStates counts states where every reduce entry names the
	// same production — the states a default-reduction encoding
	// compresses to a single entry.
	DefaultableStates int
}

// Stats computes occupancy statistics.
func (t *Tables) Stats() Stats {
	st := Stats{States: t.NumStates}
	for q := range t.Action {
		prods := map[int]bool{}
		for _, a := range t.Action[q] {
			switch a.Kind() {
			case Shift, Accept:
				st.ActionEntries++
				st.ShiftEntries++
			case Reduce:
				st.ActionEntries++
				st.ReduceEntries++
				prods[a.Target()] = true
			}
		}
		if len(prods) == 1 {
			st.DefaultableStates++
		}
		for _, gt := range t.Goto[q] {
			if gt >= 0 {
				st.GotoEntries++
			}
		}
	}
	return st
}

// Expected lists the terminals with non-error actions in a state, for
// syntax-error messages.
func (t *Tables) Expected(state int) []grammar.Sym {
	var out []grammar.Sym
	for term, a := range t.Action[state] {
		if a.Kind() != Error {
			out = append(out, grammar.Sym(term))
		}
	}
	return out
}

// String renders the full table in the compact textbook layout.
func (t *Tables) String() string {
	g := t.G
	var b strings.Builder
	b.WriteString("state")
	for term := 0; term < g.NumTerminals(); term++ {
		fmt.Fprintf(&b, "\t%s", g.SymName(grammar.Sym(term)))
	}
	for nt := 1; nt < g.NumNonterminals(); nt++ { // skip $accept
		fmt.Fprintf(&b, "\t%s", g.SymName(g.NtSym(nt)))
	}
	b.WriteByte('\n')
	for q := 0; q < t.NumStates; q++ {
		fmt.Fprintf(&b, "%d", q)
		for term := 0; term < g.NumTerminals(); term++ {
			fmt.Fprintf(&b, "\t%s", t.Action[q][term])
		}
		for nt := 1; nt < g.NumNonterminals(); nt++ {
			if to := t.Goto[q][nt]; to >= 0 {
				fmt.Fprintf(&b, "\t%d", to)
			} else {
				b.WriteString("\t.")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ConflictReport renders all conflicts, sorted by state then terminal.
func (t *Tables) ConflictReport() string {
	cs := make([]Conflict, len(t.Conflicts))
	copy(cs, t.Conflicts)
	sort.SliceStable(cs, func(i, j int) bool {
		if cs[i].State != cs[j].State {
			return cs[i].State < cs[j].State
		}
		return cs[i].Terminal < cs[j].Terminal
	})
	var b strings.Builder
	for _, c := range cs {
		b.WriteString(t.ConflictString(c))
		b.WriteByte('\n')
	}
	return b.String()
}
