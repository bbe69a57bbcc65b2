package lint

// The built-in analyzers.  Each is deterministic (fixed iteration
// orders over the dense symbol/production/state numberings) so reports
// and golden files are byte-stable.

import (
	"strings"

	"repro/internal/bitset"
	"repro/internal/cex"
	"repro/internal/digraph"
	"repro/internal/grammar"
	"repro/internal/lalrtable"
	"repro/internal/pipeline"
)

// usedAnywhere reports whether terminal t occurs in some production
// right-hand side or as a %prec override.
func usedAnywhere(g *grammar.Grammar, t grammar.Sym) bool {
	for i := range g.Productions() {
		p := g.Prod(i)
		if p.PrecSym == t {
			return true
		}
		for _, s := range p.Rhs {
			if s == t {
				return true
			}
		}
	}
	return false
}

// useless: unproductive nonterminals and unreachable symbols, wrapping
// grammar.CheckUseful.  Terminals that appear in no production at all
// are left to the unused-tokens pass, which has the sharper message.
var uselessAnalyzer = &Analyzer{
	Name:  "useless",
	Doc:   "unproductive nonterminals and unreachable symbols",
	Codes: []Code{CodeUnproductive, CodeUnreachable},
	Run: func(p *Pass) {
		g, u := p.G, grammar.CheckUseful(p.G)
		for s := 0; s < g.NumSymbols(); s++ {
			sym := grammar.Sym(s)
			if sym == grammar.EOF || sym == g.Accept() {
				continue
			}
			if g.IsNonterminal(sym) && !u.Productive[g.NtIndex(sym)] {
				sev := Warning
				if sym == g.Start() {
					sev = Error // the grammar generates no terminal string at all
				}
				p.Report(NewDiag(CodeUnproductive, sev,
					"nonterminal %s derives no terminal string", g.SymName(sym)).AtSym(sym))
				continue
			}
			if u.Reachable[s] {
				continue
			}
			if g.IsTerminal(sym) && !usedAnywhere(g, sym) {
				continue // unused-tokens reports these
			}
			p.Report(NewDiag(CodeUnreachable, Warning,
				"symbol %s cannot be reached from %s through productive productions",
				g.SymName(sym), g.SymName(g.Start())).AtSym(sym))
		}
	},
}

// unused-tokens: terminals declared (via %token, %left, …) but not
// used in any production right-hand side or %prec override.
var unusedTokensAnalyzer = &Analyzer{
	Name:  "unused-tokens",
	Doc:   "terminals declared but used in no production",
	Codes: []Code{CodeUnusedToken},
	Run: func(p *Pass) {
		g := p.G
		for t := 1; t < g.NumTerminals(); t++ { // skip $end
			sym := grammar.Sym(t)
			if !usedAnywhere(g, sym) {
				p.Report(NewDiag(CodeUnusedToken, Warning,
					"token %s is declared but appears in no production", g.SymName(sym)).AtSym(sym))
			}
		}
	},
}

// nullable-cycles: derivation cycles A ⇒+ A through nullable context,
// the cycles of the analysis's derives-alone relation.  A cycle can be
// pumped for extra parse trees, so the grammar is ambiguous.
var nullableCyclesAnalyzer = &Analyzer{
	Name:  "nullable-cycles",
	Doc:   "derivation cycles A ⇒+ A through nullable context (ambiguity)",
	Needs: pipeline.Analysis,
	Codes: []Code{CodeDerivationCycle},
	Run: func(p *Pass) {
		g, rel := p.G, p.An.DerivesAlone()
		for _, comp := range cyclic(rel.Stats) {
			cyc := shortestCycle(comp[0], rel.Succ, rel.Stats.Comp)
			if cyc == nil {
				continue
			}
			names := make([]string, len(cyc))
			for i, nt := range cyc {
				names[i] = g.SymName(g.NtSym(nt))
			}
			d := NewDiag(CodeDerivationCycle, Error,
				"nonterminal %s derives itself (%s): the grammar is ambiguous",
				names[0], strings.Join(names, " ⇒ ")).AtSym(g.NtSym(comp[0]))
			for i := 0; i+1 < len(cyc); i++ {
				d = d.With("via %s", g.ProdString(rel.Witness(cyc[i], cyc[i+1])))
			}
			p.Report(d)
		}
	},
}

// left-recursion: inventory of left-recursive nonterminals (A ⇒+ Aγ),
// the cycles of the left-corner relation the FIRST solve ran over.
// LR parsers handle left recursion natively — this is an inventory
// pass for grammar comprehension and LL-migration estimates.
var leftRecursionAnalyzer = &Analyzer{
	Name:  "left-recursion",
	Doc:   "inventory of left-recursive nonterminals",
	Needs: pipeline.Analysis,
	Codes: []Code{CodeLeftRecursion},
	Run: func(p *Pass) {
		g, rel := p.G, &p.An.LeftCorner
		comp := rel.Stats.Comp
		for _, members := range cyclic(rel.Stats) {
			for _, nt := range members {
				d := NewDiag(CodeLeftRecursion, Info,
					"nonterminal %s is left-recursive", g.SymName(g.NtSym(nt))).AtSym(g.NtSym(nt))
				for k, b := range rel.Succ[nt] {
					if comp[b] == comp[nt] {
						pi := int(rel.Prod[nt][k])
						d = d.AtProd(pi).With("via %s", g.ProdString(pi))
						break
					}
				}
				p.Report(d)
			}
		}
	},
}

// unit-chains: maximal chains of ≥2 unit productions (A → B with a
// single nonterminal on the right).  Every unit step is a reduce
// action at parse time; long chains are the classic table-bloat and
// runtime smell.  Unit cycles are derivation cycles and are reported
// by nullable-cycles instead.
var unitChainsAnalyzer = &Analyzer{
	Name:  "unit-chains",
	Doc:   "maximal chains of unit productions",
	Codes: []Code{CodeUnitChain},
	Run: func(p *Pass) {
		g := p.G
		n := g.NumNonterminals()
		adj := make([][]int, n)
		for i := 1; i < len(g.Productions()); i++ {
			pr := g.Prod(i)
			if len(pr.Rhs) == 1 && g.IsNonterminal(pr.Rhs[0]) {
				adj[g.NtIndex(pr.Lhs)] = append(adj[g.NtIndex(pr.Lhs)], g.NtIndex(pr.Rhs[0]))
			}
		}
		// Unit cycles are derivation cycles (GL010's territory) and would
		// make "longest chain" ill-defined: drop every edge inside an
		// SCC, leaving an acyclic unit graph.  Digraph over zero-width
		// sets finds the SCCs with every union free.
		comp := digraph.Run(n, func(x int, yield func(int)) {
			for _, y := range adj[x] {
				yield(y)
			}
		}, make([]bitset.Set, n)).Comp
		for x := range adj {
			kept := adj[x][:0]
			for _, y := range adj[x] {
				if comp[y] != comp[x] {
					kept = append(kept, y)
				}
			}
			adj[x] = kept
		}
		hasIncoming := make([]bool, n)
		for _, ys := range adj {
			for _, y := range ys {
				hasIncoming[y] = true
			}
		}
		// Longest chain from each node in the now-acyclic unit graph.
		memo := make([]int, n)
		nextHop := make([]int, n)
		for i := range memo {
			memo[i] = -1
			nextHop[i] = -1
		}
		var longest func(x int) int
		longest = func(x int) int {
			if memo[x] >= 0 {
				return memo[x]
			}
			best, hop := 0, -1
			for _, y := range adj[x] {
				if l := longest(y) + 1; l > best {
					best, hop = l, y
				}
			}
			memo[x], nextHop[x] = best, hop
			return best
		}
		for a := 0; a < n; a++ {
			if hasIncoming[a] || len(adj[a]) == 0 {
				continue // only maximal chains: start where no unit edge arrives
			}
			if longest(a) < 2 {
				continue
			}
			var names []string
			for x := a; x >= 0; x = nextHop[x] {
				names = append(names, g.SymName(g.NtSym(x)))
			}
			p.Report(NewDiag(CodeUnitChain, Info,
				"unit-production chain of %d reductions: %s",
				len(names)-1, strings.Join(names, " → ")).AtSym(g.NtSym(a)))
		}
	},
}

// reads-cycles: a nontrivial cycle in the reads relation proves the
// grammar is not LR(k) for any k (the paper's cyclic-reads theorem).
// The diagnostic prints a concrete cycle through the nonterminal
// transitions of the LR(0) automaton.
var readsCyclesAnalyzer = &Analyzer{
	Name:  "reads-cycles",
	Doc:   "nontrivial reads cycles (the grammar is not LR(k))",
	Needs: pipeline.DP,
	Codes: []Code{CodeReadsCycle},
	Run: func(p *Pass) {
		st := p.DP.ReadsStats
		if st == nil || !st.Cyclic() {
			return
		}
		for _, comp := range cyclic(st) {
			cyc := shortestCycle(comp[0], p.DP.Reads, st.Comp)
			if cyc == nil {
				continue
			}
			steps := make([]string, len(cyc))
			for i, t := range cyc {
				steps[i] = p.DP.TransString(t)
			}
			nt := p.Auto.NtTrans[comp[0]]
			p.Report(NewDiag(CodeReadsCycle, Error,
				"nontrivial cycle in the reads relation: the grammar is not LR(k) for any k").
				AtState(nt.From).AtSym(nt.Sym).
				With("cycle: %s", strings.Join(steps, " reads ")).
				With("each transition on the cycle reads the next through a nullable nonterminal, so no finite look-ahead resolves it (DeRemer–Pennello's cyclic-reads theorem)"))
		}
	},
}

// includes-cycles: nontrivial includes cycles are normal (left
// recursion through nullable tails produces them) and do not affect
// exactness, but they are worth an inventory line: they are where the
// Digraph SCC collapse actually earns its keep.
var includesCyclesAnalyzer = &Analyzer{
	Name:  "includes-cycles",
	Doc:   "inventory of nontrivial includes cycles",
	Needs: pipeline.DP,
	Codes: []Code{CodeIncludesCycle},
	Run: func(p *Pass) {
		st := p.DP.IncludesStats
		if st == nil || !st.Cyclic() {
			return
		}
		comps := cyclic(st)
		nt := p.Auto.NtTrans[comps[0][0]]
		d := NewDiag(CodeIncludesCycle, Info,
			"includes relation has %d nontrivial SCC(s) (largest: %d transitions); look-ahead sets stay exact, computed via SCC collapse",
			len(comps), st.LargestSCC).AtState(nt.From).AtSym(nt.Sym)
		if cyc := shortestCycle(comps[0][0], p.DP.Includes, st.Comp); cyc != nil {
			steps := make([]string, len(cyc))
			for i, t := range cyc {
				steps[i] = p.DP.TransString(t)
			}
			d = d.With("sample cycle: %s", strings.Join(steps, " includes "))
		}
		p.Report(d)
	},
}

// conflicts: provenance for every unresolved parse-table conflict —
// the counterexample input from package cex plus the lookback witness
// and includes chain from core.Explain.  Conflicts exactly matching
// the declared budget (%expect/%expect-rr or the corpus registry's
// pinned counts) downgrade to Info; a declared budget that does not
// match the actual counts is its own warning, like bison's %expect.
var conflictsAnalyzer = &Analyzer{
	Name:  "conflicts",
	Doc:   "shift/reduce and reduce/reduce conflict provenance",
	Needs: pipeline.Tables,
	Codes: []Code{CodeShiftReduce, CodeReduceReduce, CodeExpectMismatch},
	Run: func(p *Pass) {
		g, t := p.G, p.Tables
		sr, rr := t.Unresolved()
		declared := p.BudgetSR >= 0 || p.BudgetRR >= 0
		within := declared && budgetMatches(p.BudgetSR, p.BudgetRR, sr, rr)
		if declared && !within {
			p.Report(NewDiag(CodeExpectMismatch, Warning,
				"declared conflict budget %d/%d (shift-reduce/reduce-reduce) but found %d/%d",
				maxInt(p.BudgetSR, 0), maxInt(p.BudgetRR, 0), sr, rr))
		}
		if sr+rr == 0 {
			return
		}
		sev := Warning
		suffix := ""
		if within {
			sev = Info
			suffix = " — within the declared conflict budget"
		}
		gen := cex.NewGenerator(p.Auto)
		for _, c := range t.Conflicts {
			if c.Resolution != lalrtable.DefaultShift && c.Resolution != lalrtable.DefaultEarlyRule {
				continue
			}
			var d Diagnostic
			if c.Kind == lalrtable.ShiftReduce {
				d = NewDiag(CodeShiftReduce, sev,
					"shift/reduce conflict in state %d on token %s: shift vs reduce %s (parser shifts)%s",
					c.State, g.SymName(c.Terminal), g.ProdString(c.Prods[0]), suffix)
			} else {
				d = NewDiag(CodeReduceReduce, sev,
					"reduce/reduce conflict in state %d on token %s: %s vs %s (parser picks the earlier rule)%s",
					c.State, g.SymName(c.Terminal), g.ProdString(c.Prods[0]), g.ProdString(c.Prods[1]), suffix)
			}
			d = d.AtState(c.State).AtSym(c.Terminal).AtProd(c.Prods[0])
			if ex := gen.ForConflict(c); ex != nil {
				d = d.With("triggering input: %s", ex.String(g))
			}
			for _, prod := range c.Prods {
				if exp := p.DP.Explain(c.State, prod, c.Terminal); exp != nil {
					d = d.With("%s ∈ LA(%s) because %s",
						g.SymName(c.Terminal), g.ProdString(prod), exp.String(p.DP, c.Terminal))
				}
			}
			p.Report(d)
		}
	},
}
