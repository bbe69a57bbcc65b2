// Package export renders an analysis as a machine-readable report
// (JSON), so external tooling — editors, grammar linters, CI checks —
// can consume states, look-ahead sets, conflicts and the
// DeRemer–Pennello relations without parsing human-oriented dumps.
//
// The report is written by AppendAnalysis, straight from the analysis
// (encode.go).  Build assembles the same report as Go values; with
// encoding/json it is the oracle AppendAnalysis is tested against, and
// the form a client decodes a body into.
//
// The encoding is byte-deterministic: it visits only ordered
// structures (state and production slices in construction order,
// bit-set elements in ascending terminal order) and writes the one map
// field (StateInfo.Transitions) in sorted key order.  Analyzing the
// same grammar with the same method therefore always yields
// byte-identical JSON — the invariant the lalrd cache relies on to
// treat response bodies as content-addressed values, and the one the
// golden test pins.
package export

import (
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
)

// Report is the top-level JSON document.
type Report struct {
	Grammar   GrammarInfo    `json:"grammar"`
	Method    string         `json:"method"`
	States    []StateInfo    `json:"states"`
	Conflicts []ConflictInfo `json:"conflicts"`
	Relations *RelationInfo  `json:"relations,omitempty"`
	Adequate  bool           `json:"adequate"`
}

// GrammarInfo describes the grammar.
type GrammarInfo struct {
	Name         string   `json:"name"`
	Terminals    []string `json:"terminals"`
	Nonterminals []string `json:"nonterminals"`
	Productions  []string `json:"productions"`
	Start        string   `json:"start"`
}

// StateInfo describes one LR(0) state with its look-ahead sets.
type StateInfo struct {
	Index       int             `json:"index"`
	Kernel      []string        `json:"kernel"`
	Transitions map[string]int  `json:"transitions,omitempty"`
	Reductions  []ReductionInfo `json:"reductions,omitempty"`
}

// ReductionInfo pairs a production with its look-ahead set.
type ReductionInfo struct {
	Production string   `json:"production"`
	Lookahead  []string `json:"lookahead"`
}

// ConflictInfo describes one conflicted table entry.
type ConflictInfo struct {
	State       int      `json:"state"`
	Terminal    string   `json:"terminal"`
	Kind        string   `json:"kind"`
	Productions []string `json:"productions"`
	Resolution  string   `json:"resolution"`
	Unresolved  bool     `json:"unresolved"`
}

// RelationInfo summarises the DeRemer–Pennello relations.
type RelationInfo struct {
	NtTransitions  int  `json:"ntTransitions"`
	ReadsEdges     int  `json:"readsEdges"`
	IncludesEdges  int  `json:"includesEdges"`
	LookbackEdges  int  `json:"lookbackEdges"`
	ReadsCyclic    bool `json:"readsCyclic"`
	IncludesCyclic bool `json:"includesCyclic"`
	NotLRk         bool `json:"notLRk"`
}

// Build assembles a report.  dp may be nil for non-DP methods.
func Build(a *lr0.Automaton, sets [][]bitset.Set, t *lalrtable.Tables, dp *core.Result, method string) *Report {
	g := a.G
	r := &Report{Method: method, Adequate: t.Adequate()}

	r.Grammar = GrammarInfo{
		Name:  g.Name(),
		Start: g.SymName(g.Start()),
	}
	for _, s := range g.Terminals() {
		r.Grammar.Terminals = append(r.Grammar.Terminals, g.SymName(s))
	}
	for _, s := range g.Nonterminals() {
		r.Grammar.Nonterminals = append(r.Grammar.Nonterminals, g.SymName(s))
	}
	for i := range g.Productions() {
		r.Grammar.Productions = append(r.Grammar.Productions, g.ProdString(i))
	}

	for q, s := range a.States {
		si := StateInfo{Index: q}
		for _, it := range s.Kernel {
			si.Kernel = append(si.Kernel, a.ItemString(it))
		}
		if len(s.Transitions) > 0 {
			si.Transitions = make(map[string]int, len(s.Transitions))
			for _, tr := range s.Transitions {
				si.Transitions[g.SymName(tr.Sym)] = int(tr.To)
			}
		}
		for i, pi := range s.Reductions {
			if pi == 0 {
				continue
			}
			ri := ReductionInfo{Production: g.ProdString(pi)}
			sets[q][i].ForEach(func(term int) {
				ri.Lookahead = append(ri.Lookahead, g.SymName(grammar.Sym(term)))
			})
			si.Reductions = append(si.Reductions, ri)
		}
		r.States = append(r.States, si)
	}

	for _, c := range t.Conflicts {
		ci := ConflictInfo{
			State:      c.State,
			Terminal:   g.SymName(c.Terminal),
			Resolution: c.Resolution.String(),
			Unresolved: c.Resolution == lalrtable.DefaultShift || c.Resolution == lalrtable.DefaultEarlyRule,
		}
		if c.Kind == lalrtable.ShiftReduce {
			ci.Kind = "shift/reduce"
		} else {
			ci.Kind = "reduce/reduce"
		}
		for _, p := range c.Prods {
			ci.Productions = append(ci.Productions, g.ProdString(p))
		}
		r.Conflicts = append(r.Conflicts, ci)
	}

	if dp != nil {
		st := dp.Stats()
		r.Relations = &RelationInfo{
			NtTransitions:  st.NtTransitions,
			ReadsEdges:     st.ReadsEdges,
			IncludesEdges:  st.IncludesEdges,
			LookbackEdges:  st.LookbackEdges,
			ReadsCyclic:    st.ReadsCyclic,
			IncludesCyclic: st.IncludesCyclic,
			NotLRk:         dp.NotLRk(),
		}
	}
	return r
}
