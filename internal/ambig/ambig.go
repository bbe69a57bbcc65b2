// Package ambig decides, per unresolved parse-table conflict, whether
// the conflict witnesses a genuine ambiguity in the grammar or merely
// an LALR(1) inadequacy.  It walks the specialized nondeterministic
// SR-automaton rooted at the conflict state (Quaglia, "Walking on
// SR-automata to detect grammar ambiguity"): two parse stacks start
// from the same shortest prefix into the conflict state, diverge on the
// conflicting actions, and are advanced in tandem over common terminal
// extensions.  A pair that reaches end-of-input with both sides
// accepting yields a candidate witness sentence.
//
// Verdicts are proven, never asserted: every candidate is cross-checked
// against two independent oracles — the GLR recogniser (internal/glr,
// derivation count) and the span-DP tree counter (internal/treecount) —
// and only a sentence both oracles confirm ambiguous produces an
// Ambiguous verdict.  LALR look-ahead sets are supersets of the exact
// LR(1) sets, so the walk can accept sentences the grammar does not
// actually derive twice; the oracle gate filters those out.
//
// The search space is bounded (Bounds) and cancellable (guard.Budget).
// Exhausting the space without a witness proves the conflict
// unambiguous within the explored bound (Unambiguous); hitting a bound
// or a budget first leaves the question open (Undecided).
package ambig

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/cex"
	"repro/internal/glr"
	"repro/internal/grammar"
	"repro/internal/guard"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
	"repro/internal/obs"
	"repro/internal/treecount"
)

// Kind is the outcome of one conflict walk.
type Kind uint8

const (
	// Undecided means the walk hit a bound, a truncation, or a budget
	// before the search space was exhausted.
	Undecided Kind = iota
	// Ambiguous means a witness sentence was found and both oracles
	// confirmed it has more than one derivation.
	Ambiguous
	// Unambiguous means the bounded search space was exhausted with no
	// witness: the conflict is an LALR(1) inadequacy, not an ambiguity,
	// for all sentences within the explored bound.
	Unambiguous
)

func (k Kind) String() string {
	switch k {
	case Ambiguous:
		return "ambiguous"
	case Unambiguous:
		return "unambiguous"
	default:
		return "undecided"
	}
}

// Bounds caps the tandem walk.  The zero value selects defaults.
type Bounds struct {
	// MaxLen bounds the terminal extension beyond the conflict
	// look-ahead (default 16).
	MaxLen int
	// MaxPairs bounds the number of stack-pair configurations explored
	// (default 4096).
	MaxPairs int
	// MaxSteps bounds reduce applications per closure, guarding against
	// reduction cycles (default 512).
	MaxSteps int
	// MaxContexts bounds the number of automaton paths into the
	// conflict state tried as seed contexts (default 32).  The shortest
	// path alone is not enough: LALR look-ahead merges contexts, so the
	// conflict may only materialise under a deeper stack (the nested-IF
	// of dangling-else is the canonical case).
	MaxContexts int
	// MaxContextEdges bounds a context path's length, as extra edges
	// beyond the shortest path into the conflict state (default 8).
	MaxContextEdges int
}

// DefaultBounds are the caps used for zero Bounds fields.
var DefaultBounds = Bounds{
	MaxLen: 16, MaxPairs: 4096, MaxSteps: 512,
	MaxContexts: 32, MaxContextEdges: 8,
}

func (b Bounds) withDefaults() Bounds {
	if b.MaxLen <= 0 {
		b.MaxLen = DefaultBounds.MaxLen
	}
	if b.MaxPairs <= 0 {
		b.MaxPairs = DefaultBounds.MaxPairs
	}
	if b.MaxSteps <= 0 {
		b.MaxSteps = DefaultBounds.MaxSteps
	}
	if b.MaxContexts <= 0 {
		b.MaxContexts = DefaultBounds.MaxContexts
	}
	if b.MaxContextEdges <= 0 {
		b.MaxContextEdges = DefaultBounds.MaxContextEdges
	}
	return b
}

// Stats describes how a walk ended, whatever the verdict.
type Stats struct {
	// Contexts is the number of seed contexts (automaton paths into the
	// conflict state) explored.
	Contexts int
	// Pairs is the number of stack-pair configurations popped.
	Pairs int
	// Frontier is the number of configurations still queued when the
	// walk stopped (0 when the space was exhausted).
	Frontier int
	// Candidates is the number of candidate witnesses tested against
	// the oracles, including the one that proved ambiguity.
	Candidates int
	// MaxLen is the longest terminal extension explored.
	MaxLen int
	// Reason says why the walk stopped: "witness", "exhausted",
	// "pair budget", "length bound", "context bound", "truncated", or
	// "canceled: ...".
	Reason string
}

// Verdict is the proven outcome for one conflict.
type Verdict struct {
	Conflict lalrtable.Conflict
	Kind     Kind
	// Witness is the proven ambiguous sentence (Ambiguous only).
	Witness []grammar.Sym
	// Derivations is the GLR derivation count of Witness (≥ 2).
	Derivations int
	// Trees is the parse-tree count of Witness per treecount (≥ 2).
	Trees uint64
	// DerivA and DerivB are two distinct derivations of Witness.
	DerivA, DerivB glr.Derivation
	Stats          Stats
}

// Config parameterises a Walker.  All fields are optional.
type Config struct {
	Bounds   Bounds
	Budget   *guard.Budget
	Recorder *obs.Recorder
	// Gen, when non-nil, reuses an existing counterexample generator
	// instead of building one.
	Gen *cex.Generator
}

// Walker walks SR-automata for one grammar's conflicts.  It is safe
// for concurrent Walk calls only when each call gets its own Walker
// (the lint fan-out forks one per conflict); a single Walker is
// single-goroutine.
type Walker struct {
	a           *lr0.Automaton
	g           *grammar.Grammar
	sets        [][]bitset.Set
	gen         *cex.Generator
	parser      *glr.Parser
	counter     *treecount.Counter // nil when the grammar has derivation cycles
	acceptState int
	bounds      Bounds
	bud         *guard.Budget
	rec         *obs.Recorder

	// pred[s] lists the automaton's in-edges of state s; dist0[s] is
	// the edge-count distance from the start state (-1 if unreachable).
	// Both drive the bounded context enumeration.
	pred  [][]predEdge
	dist0 []int
	// rank orders states by their decimal strings (see keyLess); built
	// on first use, since most walks never compare two stacks.
	rank []int32
	// gotoTab[s*numSyms+x] is 1 + state s's transition on x, or 0: the
	// walk's successor step, without Goto's binary search.
	gotoTab []int32
	numSyms int

	// Per-walk scratch, reused across walks: the stack arena, the
	// extension trie, succ's work list and two successor buffers.
	nodes      []node
	trie       []extTok
	work       []int32
	bufA, bufB []int32
}

// predEdge is one reversed automaton transition.
type predEdge struct {
	from int
	sym  grammar.Sym
}

// New builds a Walker over an automaton and its per-reduction
// look-ahead sets (any method's; DeRemer–Pennello's in practice).
func New(a *lr0.Automaton, sets [][]bitset.Set, cfg Config) *Walker {
	w := &Walker{
		a:      a,
		g:      a.G,
		sets:   sets,
		gen:    cfg.Gen,
		bounds: cfg.Bounds.withDefaults(),
		bud:    cfg.Budget,
		rec:    cfg.Recorder,
	}
	if w.gen == nil {
		w.gen = cex.NewGenerator(a)
	}
	w.parser = glr.New(a, sets)
	w.parser.Budget = cfg.Budget
	// A cyclic grammar has no finite tree counts; without the second
	// oracle no candidate can be proven, so every walk is Undecided.
	w.counter, _ = treecount.New(a.G)
	w.acceptState = -1
	for _, s := range a.States {
		if len(s.Kernel) == 1 && s.Kernel[0] == (lr0.Item{Prod: 0, Dot: 2}) {
			w.acceptState = s.Index
		}
	}
	n := len(a.States)
	w.numSyms = a.G.NumSymbols()
	w.gotoTab = make([]int32, n*w.numSyms)
	w.pred = make([][]predEdge, n)
	for _, s := range a.States {
		for _, tr := range s.Transitions {
			w.gotoTab[s.Index*w.numSyms+int(tr.Sym)] = int32(tr.To) + 1
			if tr.Sym == grammar.EOF {
				continue
			}
			w.pred[tr.To] = append(w.pred[tr.To], predEdge{from: s.Index, sym: tr.Sym})
		}
	}
	w.dist0 = make([]int, n)
	for i := range w.dist0 {
		w.dist0[i] = -1
	}
	w.dist0[0] = 0
	bfs := []int{0}
	for i := 0; i < len(bfs); i++ {
		q := bfs[i]
		for _, tr := range a.States[q].Transitions {
			if tr.Sym == grammar.EOF || w.dist0[tr.To] >= 0 {
				continue
			}
			w.dist0[tr.To] = w.dist0[q] + 1
			bfs = append(bfs, int(tr.To))
		}
	}
	return w
}

// undecided builds an Undecided verdict with a stop reason.
func undecided(c lalrtable.Conflict, st Stats, reason string) Verdict {
	st.Reason = reason
	return Verdict{Conflict: c, Kind: Undecided, Stats: st}
}

// Describe renders a verdict for diagnostics: the witness and both
// derivations for Ambiguous, the stop reason otherwise.
func (v *Verdict) Describe(g *grammar.Grammar) string {
	switch v.Kind {
	case Ambiguous:
		return fmt.Sprintf("sentence %q has %d derivations (%d trees)",
			sentence(g, v.Witness), v.Derivations, v.Trees)
	case Unambiguous:
		return fmt.Sprintf("no ambiguous sentence within %d tokens of the conflict (%d configurations)",
			v.Stats.MaxLen, v.Stats.Pairs)
	default:
		return fmt.Sprintf("search stopped (%s) after %d configurations, %d still queued",
			v.Stats.Reason, v.Stats.Pairs, v.Stats.Frontier)
	}
}

// sentence renders a terminal string with space-separated symbol names.
func sentence(g *grammar.Grammar, toks []grammar.Sym) string {
	out := ""
	for i, t := range toks {
		if i > 0 {
			out += " "
		}
		out += g.SymName(t)
	}
	return out
}
