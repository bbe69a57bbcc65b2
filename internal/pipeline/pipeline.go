// Package pipeline builds the paper's chain — grammar analysis, the
// LR(0) automaton, the DeRemer–Pennello relations and look-ahead sets,
// the LALR(1) tables — as far as a caller asks, under the caller's
// budget and recorder.  It is the one place the chain is wired, so
// repro.Analyze, lint.Run and lalrbench record the same stage spans in
// the same order: grammar-analysis, lr0-construction,
// lookahead-deremer-pennello, table-build.
package pipeline

import (
	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/guard"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
	"repro/internal/obs"
)

// Stage is a point along the chain; building a stage builds every
// earlier one.
type Stage uint8

// The chain's stages, in build order.
const (
	None     Stage = iota // nothing is built
	Analysis              // nullability, FIRST and the grammar-level relations
	LR0                   // the LR(0) automaton
	DP                    // DeRemer–Pennello relations and look-ahead sets
	Tables                // LALR(1) parse tables after precedence resolution
)

// Result holds the stages Build reached; those past its upto are nil.
type Result struct {
	An     *grammar.Analysis
	Auto   *lr0.Automaton
	DP     *core.Result
	Tables *lalrtable.Tables
}

// Build runs the chain on g through stage upto, each stage under bud
// (nil enforces nothing) with its span recorded into rec (nil records
// nothing).  A budget violation returns its error and no Result.
func Build(g *grammar.Grammar, upto Stage, rec *obs.Recorder, bud *guard.Budget) (*Result, error) {
	r := &Result{}
	var err error
	if upto >= Analysis {
		sp := rec.Start("grammar-analysis")
		r.An = grammar.Analyze(g)
		sp.End()
	}
	if upto >= LR0 {
		sp := rec.Start("lr0-construction")
		r.Auto, err = lr0.NewBudgeted(g, r.An, rec, bud)
		sp.End()
	}
	if err == nil && upto >= DP {
		sp := rec.Start("lookahead-deremer-pennello")
		r.DP, err = core.ComputeBudgeted(r.Auto, rec, bud)
		sp.End()
	}
	if err == nil && upto >= Tables {
		r.Tables, err = lalrtable.BuildBudgeted(r.Auto, r.DP.Sets(), rec, bud)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}
