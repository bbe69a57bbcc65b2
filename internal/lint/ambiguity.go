package lint

// The ambiguity pass upgrades conflict reporting from "here is a
// conflict" (GL030/GL031) to a proven verdict per conflict: GL040 when
// an SR-automaton walk found a concrete sentence with two derivations
// and BOTH oracles (the GLR recogniser and the span-DP tree counter)
// confirmed it, GL041 when the bounded search space was exhausted with
// no witness (an LALR(1) inadequacy, not an ambiguity), GL042 when a
// bound or budget stopped the walk first.  Walks are independent per
// conflict and fan out over internal/driver; verdicts land positionally
// and diagnostics are emitted in conflict order, so the report is
// byte-identical at any parallelism.

import (
	"context"
	"strings"

	"repro/internal/ambig"
	"repro/internal/driver"
	"repro/internal/grammar"
	"repro/internal/lalrtable"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

var ambiguityAnalyzer = &Analyzer{
	Name:  "ambiguity",
	Doc:   "walk SR-automata from conflict states to proven ambiguity verdicts",
	Needs: pipeline.Tables,
	Codes: []Code{CodeAmbiguous, CodeNotAmbiguous, CodeAmbigUndecided},
	Run:   runAmbiguity,
}

func runAmbiguity(p *Pass) {
	g := p.G
	var open []lalrtable.Conflict
	for _, c := range p.Tables.Conflicts {
		if c.Resolution == lalrtable.DefaultShift || c.Resolution == lalrtable.DefaultEarlyRule {
			open = append(open, c)
		}
	}
	if len(open) == 0 {
		return
	}

	bounds := ambig.Bounds{MaxLen: p.AmbigMaxLen, MaxPairs: p.AmbigMaxPairs}
	// The walk tables are per automaton: built once here, read by every
	// conflict's walk.
	m := ambig.NewMachine(p.Auto, p.DP.Sets())

	// Fork the budgets serially up front and join them in index order
	// after the pool drains, so resource accounting is deterministic
	// whatever the scheduling.
	children := make([]*ambig.Config, len(open))
	for i := range open {
		children[i] = &ambig.Config{Bounds: bounds, Budget: p.Bud.Fork()}
	}
	ctx := p.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	verdicts := make([]ambig.Verdict, len(open))
	err := driver.Run(ctx, len(open), driver.Options{
		Workers:  p.Parallelism,
		Recorder: p.Rec,
	}, func(_ context.Context, i int, rec *obs.Recorder) error {
		cfg := *children[i]
		cfg.Recorder = rec
		verdicts[i] = m.Walker(cfg).Walk(open[i])
		return nil
	})
	for i := range open {
		p.Bud.Join(children[i].Budget)
	}
	if err != nil {
		// Tasks only fail by panicking; re-panic into Run's
		// containment so the report carries a typed internal error.
		panic(err)
	}

	// Conflicts within a declared %expect budget are accepted by the
	// grammar author; their verdicts are inventory (Info), matching
	// the conflicts pass.  GL041 is always inventory: proving a
	// conflict harmless is good news.
	sr, rr := p.Tables.Unresolved()
	declared := p.BudgetSR >= 0 || p.BudgetRR >= 0
	within := declared && budgetMatches(p.BudgetSR, p.BudgetRR, sr, rr)
	sev := Warning
	suffix := ""
	if within {
		sev = Info
		suffix = " — within the declared conflict budget"
	}

	for i, c := range open {
		v := verdicts[i]
		switch v.Kind {
		case ambig.Ambiguous:
			wit := witnessString(g, v.Witness)
			d := NewDiag(CodeAmbiguous, sev,
				"conflict in state %d on token %s is a proven ambiguity: %q admits %d derivations (%d parse trees)%s",
				c.State, g.SymName(c.Terminal), wit, v.Derivations, v.Trees, suffix).
				AtState(c.State).AtSym(c.Terminal).AtProd(c.Prods[0]).
				WithWitness(wit).
				With("derivation 1: %s", v.DerivA.String(g)).
				With("derivation 2: %s", v.DerivB.String(g))
			p.Report(d)
		case ambig.Unambiguous:
			p.Report(NewDiag(CodeNotAmbiguous, Info,
				"conflict in state %d on token %s is an LALR(1) inadequacy, not an ambiguity: no ambiguous sentence within %d extension tokens (%d contexts, %d configurations explored)",
				c.State, g.SymName(c.Terminal), v.Stats.MaxLen, v.Stats.Contexts, v.Stats.Pairs).
				AtState(c.State).AtSym(c.Terminal).AtProd(c.Prods[0]))
		default:
			p.Report(NewDiag(CodeAmbigUndecided, sev,
				"ambiguity of the conflict in state %d on token %s is undecided: %s (%d configurations explored, %d queued, %d candidates tested)%s",
				c.State, g.SymName(c.Terminal), v.Stats.Reason, v.Stats.Pairs, v.Stats.Frontier, v.Stats.Candidates, suffix).
				AtState(c.State).AtSym(c.Terminal).AtProd(c.Prods[0]))
		}
	}
}

// witnessString renders a witness sentence as space-separated terminal
// names.
func witnessString(g *grammar.Grammar, toks []grammar.Sym) string {
	var b strings.Builder
	for i, t := range toks {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(g.SymName(t))
	}
	return b.String()
}
