// Package obs is the pipeline's observability layer: hierarchical
// phase timers and named monotonic counters keyed off the paper's cost
// model, with three sinks — a human-readable tree summary, versioned
// JSON export (the format of the BENCH_* trajectory files), and an
// expvar-style snapshot API.
//
// The central type is Recorder.  Every entry point of the pipeline
// accepts a *Recorder and is nil-safe: a nil Recorder turns every
// operation into a no-op (a single nil check), so the uninstrumented
// hot path pays nothing.  Instrumented code follows two rules to keep
// the recording path cheap as well:
//
//   - spans bracket *phases* (LR(0) construction, the Digraph passes,
//     table packing), never per-item work;
//   - counters are accumulated in plain local variables inside the hot
//     loops and flushed with one Add per phase.
//
// Counter names are exported constants documenting how each maps to
// the quantities of DeRemer–Pennello's cost argument (relation sizes,
// unions, SCC structure); see the C* constants.
//
// A Recorder is not safe for concurrent use: the pipeline it observes
// is single-goroutine, and keeping the recorder lock-free keeps its
// overhead out of the measurements it takes.
package obs

import (
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// SchemaVersion identifies the JSON export layout.  Bump when the
// structure of Export changes incompatibly.
const SchemaVersion = "repro-obs/1"

// Counter names.  Each is one term of the paper's cost model: Digraph
// solves the reads/includes union systems in time linear in nodes
// (nonterminal transitions) plus edges, counting one bit-set union as
// a unit, and the surrounding pipeline is linear in the remaining
// quantities.
const (
	// CNtTransitions counts nonterminal transitions visited — the node
	// set of the reads and includes relations (|X| in the paper).
	CNtTransitions = "nt_transitions"
	// CDRElements counts terminals inserted into direct-read sets.
	CDRElements = "dr_elements"
	// CReadsEdges / CIncludesEdges count edges *built* for the two
	// relations (|R| per system).
	CReadsEdges    = "reads_edges"
	CIncludesEdges = "includes_edges"
	// CLookbackEdges counts lookback edges enumerated.
	CLookbackEdges = "lookback_edges"
	// CRelationEdges counts edges *traversed* by Digraph (both passes,
	// duplicates included) — the paper's linearity is in this number.
	CRelationEdges = "relation_edges"
	// CBitsetUnions counts bit-set unions performed (the unit operation
	// of the cost model): one per traversed edge plus one per non-root
	// SCC member, plus the final LA unions.
	CBitsetUnions = "bitset_unions"
	// CSCCPushes / CSCCPops count Digraph stack operations; CSCCs
	// counts components found.
	CSCCPushes = "scc_pushes"
	CSCCPops   = "scc_pops"
	CSCCs      = "sccs"
	// CLAUnions counts Follow-set unions into reduction look-aheads
	// (one per lookback edge contributing to an LA set).
	CLAUnions = "la_unions"
	// CPropRounds counts the propagation sweeps of the yacc method;
	// CPropEdges its propagation-graph edges.
	CPropRounds = "prop_rounds"
	CPropEdges  = "prop_edges"
	// CLR0States / CLR0Transitions size the underlying automaton.
	CLR0States      = "lr0_states"
	CLR0Transitions = "lr0_transitions"
	// CTableActions counts non-error ACTION entries installed;
	// CTableConflicts the conflicted entries encountered.
	CTableActions   = "table_actions"
	CTableConflicts = "table_conflicts"
	// CTableCellsPacked counts int32 cells in the comb-packed tables.
	CTableCellsPacked = "table_cells_packed"
	// CGuardChecks counts full (non-amortized) budget checkpoint
	// evaluations; CGuardAborts counts budget violations recorded
	// (cancellations, limit trips, injected faults).
	CGuardChecks = "guard_checks"
	CGuardAborts = "guard_aborts"
	// CLintPasses / CLintDiagnostics count analyzer executions and
	// findings in a lint run.
	CLintPasses      = "lint_passes"
	CLintDiagnostics = "lint_diagnostics"
	// CAmbigWalks counts SR-automaton ambiguity walks started (one per
	// unresolved conflict); CAmbigWitnesses counts walks that ended in a
	// proven-ambiguous verdict with an oracle-confirmed witness.
	// CAmbigPairs counts the stack-pair configurations the walks popped
	// (the sum of their Stats.Pairs); CAmbigStackNodes the stack nodes
	// they interned.
	CAmbigWalks      = "ambig_walks"
	CAmbigWitnesses  = "ambig_witnesses"
	CAmbigPairs      = "ambig_pairs"
	CAmbigStackNodes = "ambig_stack_nodes"
)

// Span is one timed phase.  Spans nest: a span started while another
// is open becomes its child.  All methods are nil-safe.
type Span struct {
	name     string
	start    time.Time
	allocAt  uint64
	wall     time.Duration
	alloc    int64
	children []*Span
	parent   *Span
	rec      *Recorder
	open     bool
}

// Recorder accumulates spans and counters for one pipeline run.
type Recorder struct {
	roots    []*Span
	cur      *Span // innermost open span, or nil
	counters map[string]int64
	alloc    [1]metrics.Sample // totalAlloc's reused sample
}

// New returns an empty Recorder.
func New() *Recorder {
	r := &Recorder{counters: make(map[string]int64)}
	r.alloc[0].Name = allocsMetric
	return r
}

// allocsMetric is cumulative heap allocation, the counter
// runtime.MemStats reports as TotalAlloc.
const allocsMetric = "/gc/heap/allocs:bytes"

// totalAlloc samples cumulative heap allocation at a span boundary.
// runtime/metrics reads it without stopping the world, which
// runtime.ReadMemStats would do at every boundary of every concurrent
// request.  The sample lives in the Recorder, which is single-goroutine,
// so a reading allocates nothing.
func (r *Recorder) totalAlloc() uint64 {
	metrics.Read(r.alloc[:])
	return r.alloc[0].Value.Uint64()
}

// Start opens a span named name nested under the currently open span.
// Returns nil (harmlessly) on a nil Recorder.
func (r *Recorder) Start(name string) *Span {
	if r == nil {
		return nil
	}
	s := &Span{name: name, rec: r, parent: r.cur, open: true}
	if r.cur != nil {
		r.cur.children = append(r.cur.children, s)
	} else {
		r.roots = append(r.roots, s)
	}
	r.cur = s
	s.allocAt = r.totalAlloc()
	s.start = time.Now() // last: exclude our own bookkeeping from the span
	return s
}

// End closes the span, recording wall time and the allocation delta.
// Ending an already-ended or nil span is a no-op.  If inner spans are
// still open they are closed first, so a forgotten End cannot corrupt
// the nesting.
func (s *Span) End() {
	if s == nil || !s.open {
		return
	}
	wall := time.Since(s.start)
	alloc := int64(s.rec.totalAlloc() - s.allocAt)
	for s.rec.cur != nil && s.rec.cur != s {
		s.rec.cur.End()
	}
	s.wall = wall
	s.alloc = alloc
	s.open = false
	s.rec.cur = s.parent
}

// Add increments the named counter.  No-op on a nil Recorder.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil || delta == 0 {
		return
	}
	r.counters[name] += delta
}

// Merge folds another Recorder into r: counters are summed name-wise,
// and o's root spans (closed first) are adopted under r's currently
// open span, or as roots if none is open.  This is how the parallel
// driver combines per-worker Recorders: counter totals are identical to
// a serial run over the same work (addition commutes), while the span
// tree groups each worker's phases under the worker that ran them.
// Wall times of sibling workers overlap and must not be summed across
// workers — they answer "where did this worker spend its time", not
// "how long did the batch take".
//
// Merge is not safe for concurrent use; merge workers after they
// finish, from one goroutine, in a deterministic order.  Merging into a
// nil Recorder or merging a nil/empty Recorder is a no-op.
func (r *Recorder) Merge(o *Recorder) {
	if r == nil || o == nil {
		return
	}
	for o.cur != nil {
		o.cur.End()
	}
	for _, s := range o.roots {
		s.rec = r
		reparent(s, r)
		if r.cur != nil {
			s.parent = r.cur
			r.cur.children = append(r.cur.children, s)
		} else {
			s.parent = nil
			r.roots = append(r.roots, s)
		}
	}
	o.roots = nil
	for n, v := range o.counters {
		r.counters[n] += v
	}
}

// reparent points every span of a subtree at its new Recorder.
func reparent(s *Span, r *Recorder) {
	for _, c := range s.children {
		c.rec = r
		reparent(c, r)
	}
}

// Counter returns the named counter's value (0 if never incremented or
// on a nil Recorder).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	return r.counters[name]
}

// KV is one counter in a snapshot.
type KV struct {
	Name  string
	Value int64
}

// Snapshot returns all counters sorted by name.  Nil Recorders return
// nil.
func (r *Recorder) Snapshot() []KV {
	if r == nil {
		return nil
	}
	out := make([]KV, 0, len(r.counters))
	for n, v := range r.counters {
		out = append(out, KV{n, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Do calls f for every counter in name order — the expvar.Do idiom,
// for callers that export counters into their own monitoring.
func (r *Recorder) Do(f func(KV)) {
	for _, kv := range r.Snapshot() {
		f(kv)
	}
}

// SpanExport is the JSON form of one span.
type SpanExport struct {
	Name       string       `json:"name"`
	WallNs     int64        `json:"wall_ns"`
	AllocBytes int64        `json:"alloc_bytes"`
	Children   []SpanExport `json:"children,omitempty"`
}

// Export is the JSON form of a whole Recorder.
type Export struct {
	Schema   string           `json:"schema"`
	Phases   []SpanExport     `json:"phases"`
	Counters map[string]int64 `json:"counters"`
}

func exportSpan(s *Span) SpanExport {
	e := SpanExport{Name: s.name, WallNs: s.wall.Nanoseconds(), AllocBytes: s.alloc}
	for _, c := range s.children {
		e.Children = append(e.Children, exportSpan(c))
	}
	return e
}

// ExportData returns the Recorder's contents in the versioned export
// shape.  Open spans are closed first.  Nil Recorders export an empty
// (but schema-stamped) document.
func (r *Recorder) ExportData() Export {
	e := Export{Schema: SchemaVersion, Counters: map[string]int64{}}
	if r == nil {
		return e
	}
	for r.cur != nil {
		r.cur.End()
	}
	for _, s := range r.roots {
		e.Phases = append(e.Phases, exportSpan(s))
	}
	for n, v := range r.counters {
		e.Counters[n] = v
	}
	return e
}

// JSON renders the Recorder as indented JSON.  Map keys are emitted in
// sorted order (encoding/json guarantee), so the structural parts of
// the output are byte-stable across runs.
func (r *Recorder) JSON() ([]byte, error) {
	return json.MarshalIndent(r.ExportData(), "", "  ")
}

// Tree renders the spans as an indented tree with wall time and
// allocation deltas, followed by the counters — the -stats output of
// the CLIs.
func (r *Recorder) Tree() string {
	if r == nil {
		return ""
	}
	for r.cur != nil {
		r.cur.End()
	}
	var b strings.Builder
	// Compute the widest name+indent so the time column aligns.
	width := 0
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		if w := 2*depth + len(s.name); w > width {
			width = w
		}
		for _, c := range s.children {
			walk(c, depth+1)
		}
	}
	for _, s := range r.roots {
		walk(s, 0)
	}
	var render func(s *Span, depth int)
	render = func(s *Span, depth int) {
		pad := 2*depth + len(s.name)
		fmt.Fprintf(&b, "%s%s%s  %10s  %s\n",
			strings.Repeat("  ", depth), s.name,
			strings.Repeat(" ", width-pad),
			fmtDuration(s.wall), fmtBytes(s.alloc))
		for _, c := range s.children {
			render(c, depth+1)
		}
	}
	for _, s := range r.roots {
		render(s, 0)
	}
	if len(r.counters) > 0 {
		b.WriteString("counters:\n")
		nameW := 0
		for _, kv := range r.Snapshot() {
			if len(kv.Name) > nameW {
				nameW = len(kv.Name)
			}
		}
		for _, kv := range r.Snapshot() {
			fmt.Fprintf(&b, "  %-*s  %d\n", nameW, kv.Name, kv.Value)
		}
	}
	return b.String()
}

// fmtDuration renders a duration with µs/ms/s units at fixed precision
// so the tree columns stay narrow.
func fmtDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// fmtBytes renders an allocation delta in B/KB/MB.
func fmtBytes(n int64) string {
	switch {
	case n < 10*1024:
		return fmt.Sprintf("%dB", n)
	case n < 10*1024*1024:
		return fmt.Sprintf("%dKB", n/1024)
	default:
		return fmt.Sprintf("%dMB", n/(1024*1024))
	}
}
