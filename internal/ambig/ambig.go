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
	"sync"

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
	// MaxSteps bounds each terminal's reduce applications per closure,
	// guarding against reduction cycles (default 512).
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
}

// Machine is the read-only, per-automaton part of the walk: the tables
// every conflict's walk reads, built once per grammar by NewMachine.
// No walk writes them; the two caches filled on first use, the state
// rank and the cex generator's strings, are guarded by a sync.Once and
// the generator's mutex.  It is safe for concurrent use; each goroutine
// walks through a Walker of its own.
type Machine struct {
	a       *lr0.Automaton
	g       *grammar.Grammar
	gen     *cex.Generator
	recog   *glr.Parser        // the GLR oracle, copied into each Walker
	counter *treecount.Counter // nil when the grammar has derivation cycles

	// predE[predAt[s]:predAt[s+1]] lists the automaton's in-edges of
	// state s; dist0[s] is the edge-count distance from the start state
	// (-1 if unreachable).  Both drive the bounded context enumeration.
	predAt []int32
	predE  []predEdge
	dist0  []int
	// rank orders states by their decimal strings (see keyLess); built
	// on first use, since most walks never compare two stacks.
	rankOnce sync.Once
	rank     []int32
	// gotoTab[s*numSyms+x] is 1 + state s's transition on x, or 0: the
	// walk's successor step, without Goto's binary search.
	gotoTab []int32
	numSyms int

	// The reduce closure's word tables, nw words per terminal set.
	// shiftW[s*nw:] is the terminals state s shifts.  State s's live
	// reductions (the accept production and empty look-ahead sets
	// dropped, in Reductions order) are reds[redAt[s]:redAt[s+1]], and
	// laW[r*nw:] is reduction r's look-ahead set.  wantAll is every
	// terminal but $end, the terminals a walk extends a pair by.
	nw      int
	shiftW  []uint64
	redAt   []int32
	reds    []reduction
	laW     []uint64
	wantAll []uint64
}

// reduction is one live reduce item of the closure tables.
type reduction struct {
	lhs grammar.Sym
	rhs int32 // right-hand side length
}

// Walker walks SR-automata for one Machine under one Config.  A Walker
// is single-goroutine; concurrent walks over one Machine each take a
// Walker of their own, which costs a copy of the configuration.
type Walker struct {
	*Machine
	bounds Bounds
	bud    *guard.Budget
	rec    *obs.Recorder
	parser glr.Parser // the machine's recogniser under this walker's budget

	// The running walk's working set, taken from walkScratch when
	// Walk starts and given back when it ends (nil between walks), so
	// it is reused across walks and across Walkers.
	*scratch
}

// predEdge is one reversed automaton transition.
type predEdge struct {
	from int32
	sym  grammar.Sym
}

// NewMachine builds the walk tables of an automaton and its
// per-reduction look-ahead sets (any method's; DeRemer–Pennello's in
// practice).
func NewMachine(a *lr0.Automaton, sets [][]bitset.Set) *Machine {
	m := &Machine{
		a:     a,
		g:     a.G,
		gen:   cex.NewGenerator(a),
		recog: glr.New(a, sets),
	}
	// A cyclic grammar has no finite tree counts; without the second
	// oracle no candidate can be proven, so every walk is Undecided.
	m.counter, _ = treecount.New(a.An)
	n := len(a.States)
	nt := a.G.NumTerminals()
	m.numSyms = a.G.NumSymbols()
	m.nw = (nt + 63) / 64
	m.gotoTab = make([]int32, n*m.numSyms)
	m.shiftW = make([]uint64, n*m.nw)
	m.predAt = make([]int32, n+2)
	m.redAt = make([]int32, n+1)
	reds := 0
	for _, s := range a.States {
		for _, tr := range s.Transitions {
			if tr.Sym != grammar.EOF {
				m.predAt[tr.To+2]++
			}
		}
		reds += len(s.Reductions)
	}
	for s := 2; s <= n+1; s++ {
		m.predAt[s] += m.predAt[s-1]
	}
	m.predE = make([]predEdge, m.predAt[n+1])
	m.reds = make([]reduction, 0, reds)
	m.laW = make([]uint64, 0, reds*m.nw)
	for _, s := range a.States {
		for _, tr := range s.Transitions {
			m.gotoTab[s.Index*m.numSyms+int(tr.Sym)] = int32(tr.To) + 1
			if int(tr.Sym) < nt {
				m.shiftW[s.Index*m.nw+int(tr.Sym)/64] |= 1 << (uint(tr.Sym) % 64)
			}
			if tr.Sym != grammar.EOF {
				// predAt[to+1] walks to's slots and ends as its end.
				m.predE[m.predAt[tr.To+1]] = predEdge{from: int32(s.Index), sym: tr.Sym}
				m.predAt[tr.To+1]++
			}
		}
		for ord, pi := range s.Reductions {
			la := sets[s.Index][ord]
			if pi == 0 || la.Empty() {
				continue
			}
			off := len(m.laW)
			m.laW = m.laW[:off+m.nw] // zero: capacity is exact and fresh
			la.ForEach(func(t int) {
				if t < nt {
					m.laW[off+t/64] |= 1 << (uint(t) % 64)
				}
			})
			prod := a.G.Prod(pi)
			m.reds = append(m.reds, reduction{lhs: prod.Lhs, rhs: int32(len(prod.Rhs))})
		}
		m.redAt[s.Index+1] = int32(len(m.reds))
	}
	m.predAt = m.predAt[:n+1]
	m.wantAll = make([]uint64, m.nw)
	for t := 1; t < nt; t++ {
		m.wantAll[t/64] |= 1 << (uint(t) % 64)
	}
	m.dist0 = make([]int, n)
	for i := range m.dist0 {
		m.dist0[i] = -1
	}
	m.dist0[0] = 0
	bfs := make([]int, 1, n)
	for i := 0; i < len(bfs); i++ {
		q := bfs[i]
		for _, tr := range a.States[q].Transitions {
			if tr.Sym == grammar.EOF || m.dist0[tr.To] >= 0 {
				continue
			}
			m.dist0[tr.To] = m.dist0[q] + 1
			bfs = append(bfs, int(tr.To))
		}
	}
	return m
}

// Walker returns a walker over m under cfg.
func (m *Machine) Walker(cfg Config) *Walker {
	w := &Walker{
		Machine: m,
		bounds:  cfg.Bounds.withDefaults(),
		bud:     cfg.Budget,
		rec:     cfg.Recorder,
		parser:  *m.recog,
	}
	w.parser.Budget = cfg.Budget
	return w
}

// preds returns the in-edges of state s.
func (m *Machine) preds(s int32) []predEdge {
	return m.predE[m.predAt[s]:m.predAt[s+1]]
}

// ranks returns the states' decimal-string ranks, built on first use.
func (m *Machine) ranks() []int32 {
	m.rankOnce.Do(func() { m.rank = decimalRanks(len(m.a.States)) })
	return m.rank
}

// undecided builds an Undecided verdict with a stop reason.
func undecided(c lalrtable.Conflict, st Stats, reason string) Verdict {
	st.Reason = reason
	return Verdict{Conflict: c, Kind: Undecided, Stats: st}
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
