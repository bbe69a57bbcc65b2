package grammar_test

// The chaotic-iteration fixpoints that Analyze and CheckUseful replaced
// (a Digraph solve over a grammar relation for FIRST and FOLLOW, one
// work list for nullable and productive), kept as differential oracles
// on the corpus and its mutants.

import (
	"fmt"
	"testing"

	"repro/internal/bitset"
	"repro/internal/grammar"
	"repro/internal/grammars"
)

func oracleNullable(g *grammar.Grammar) []bool {
	nullable := make([]bool, g.NumNonterminals())
	nullSym := func(s grammar.Sym) bool { return g.IsNonterminal(s) && nullable[g.NtIndex(s)] }
	for changed := true; changed; {
		changed = false
		for _, p := range g.Productions() {
			if nullable[g.NtIndex(p.Lhs)] {
				continue
			}
			all := true
			for _, s := range p.Rhs {
				all = all && nullSym(s)
			}
			if all {
				nullable[g.NtIndex(p.Lhs)] = true
				changed = true
			}
		}
	}
	return nullable
}

func oracleProductive(g *grammar.Grammar) []bool {
	productive := make([]bool, g.NumNonterminals())
	for changed := true; changed; {
		changed = false
		for _, p := range g.Productions() {
			if productive[g.NtIndex(p.Lhs)] {
				continue
			}
			ok := true
			for _, s := range p.Rhs {
				if g.IsNonterminal(s) && !productive[g.NtIndex(s)] {
					ok = false
				}
			}
			if ok {
				productive[g.NtIndex(p.Lhs)] = true
				changed = true
			}
		}
	}
	return productive
}

func oracleFirst(g *grammar.Grammar, nullable []bool) []bitset.Set {
	nullSym := func(s grammar.Sym) bool { return g.IsNonterminal(s) && nullable[g.NtIndex(s)] }
	first := make([]bitset.Set, g.NumSymbols())
	for s := range first {
		first[s] = bitset.New(g.NumTerminals())
		if g.IsTerminal(grammar.Sym(s)) {
			first[s].Add(s)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range g.Productions() {
			for _, s := range p.Rhs {
				if first[p.Lhs].Or(first[s]) {
					changed = true
				}
				if !nullSym(s) {
					break
				}
			}
		}
	}
	return first
}

func oracleFollow(g *grammar.Grammar, nullable []bool, first []bitset.Set) []bitset.Set {
	nullSym := func(s grammar.Sym) bool { return g.IsNonterminal(s) && nullable[g.NtIndex(s)] }
	follow := make([]bitset.Set, g.NumNonterminals())
	for i := range follow {
		follow[i] = bitset.New(g.NumTerminals())
	}
	for changed := true; changed; {
		changed = false
		for _, p := range g.Productions() {
			for j, s := range p.Rhs {
				if !g.IsNonterminal(s) {
					continue
				}
				fs := &follow[g.NtIndex(s)]
				restNullable := true
				for _, r := range p.Rhs[j+1:] {
					if fs.Or(first[r]) {
						changed = true
					}
					if !nullSym(r) {
						restNullable = false
						break
					}
				}
				if restNullable && fs.Or(follow[g.NtIndex(p.Lhs)]) {
					changed = true
				}
			}
		}
	}
	return follow
}

// oracleGrammars returns the corpus and the mutants of seeds 1–6.
func oracleGrammars(t *testing.T) map[string]*grammar.Grammar {
	out := map[string]*grammar.Grammar{}
	for _, e := range grammars.All() {
		out[e.Name] = grammars.MustLoad(e.Name)
		for seed := int64(1); seed <= 6; seed++ {
			for i, m := range grammars.Mutations(e.Src, seed, 4) {
				g, err := grammar.Parse("mutant.y", m)
				if err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("%s mutant %d/%d", e.Name, seed, i)] = g
			}
		}
	}
	return out
}

func TestAnalysisMatchesChaoticOracles(t *testing.T) {
	for name, g := range oracleGrammars(t) {
		an := grammar.Analyze(g)
		nullable := oracleNullable(g)
		first := oracleFirst(g, nullable)
		follow := oracleFollow(g, nullable, first)
		productive := oracleProductive(g)
		useful := grammar.CheckUseful(g)
		for i := 0; i < g.NumNonterminals(); i++ {
			nt := g.NtSym(i)
			if an.Nullable[i] != nullable[i] {
				t.Errorf("%s: nullable(%s) = %v, oracle %v", name, g.SymName(nt), an.Nullable[i], nullable[i])
			}
			if useful.Productive[i] != productive[i] {
				t.Errorf("%s: productive(%s) = %v, oracle %v", name, g.SymName(nt), useful.Productive[i], productive[i])
			}
			if !an.Follow(nt).Equal(follow[i]) {
				t.Errorf("%s: FOLLOW(%s) = %s, oracle %s", name, g.SymName(nt),
					an.TerminalSetNames(an.Follow(nt)), an.TerminalSetNames(follow[i]))
			}
		}
		for s := range first {
			if !an.First[s].Equal(first[s]) {
				t.Errorf("%s: FIRST(%s) = %s, oracle %s", name, g.SymName(grammar.Sym(s)),
					an.TerminalSetNames(an.First[s]), an.TerminalSetNames(first[s]))
			}
		}
	}
}

// TestRelationsCarryTheirWitnesses checks every relation edge against
// its definition and its realising production, and that the Digraph
// Stats describe all nonterminals.
func TestRelationsCarryTheirWitnesses(t *testing.T) {
	for name, g := range oracleGrammars(t) {
		an := grammar.Analyze(g)
		checks := []struct {
			rel  *grammar.Relation
			edge func(p *grammar.Production, k int) (from, to grammar.Sym)
		}{
			{&an.LeftCorner, func(p *grammar.Production, k int) (grammar.Sym, grammar.Sym) {
				if an.NullableSeq(p.Rhs[:k]) {
					return p.Lhs, p.Rhs[k]
				}
				return grammar.NoSym, grammar.NoSym
			}},
			{an.DerivesAlone(), func(p *grammar.Production, k int) (grammar.Sym, grammar.Sym) {
				if an.NullableSeq(p.Rhs[:k]) && an.NullableSeq(p.Rhs[k+1:]) {
					return p.Lhs, p.Rhs[k]
				}
				return grammar.NoSym, grammar.NoSym
			}},
			{an.Includes(), func(p *grammar.Production, k int) (grammar.Sym, grammar.Sym) {
				if an.NullableSeq(p.Rhs[k+1:]) {
					return p.Rhs[k], p.Lhs
				}
				return grammar.NoSym, grammar.NoSym
			}},
		}
		for ci, c := range checks {
			want := 0
			for pi, p := range g.Productions() {
				for k, s := range p.Rhs {
					if !g.IsNonterminal(s) {
						continue
					}
					from, to := c.edge(&g.Productions()[pi], k)
					if from == grammar.NoSym {
						continue
					}
					want++
					a, b := g.NtIndex(from), g.NtIndex(to)
					found := false
					for j, y := range c.rel.Succ[a] {
						found = found || (int(y) == b && int(c.rel.Prod[a][j]) == pi)
					}
					if !found {
						t.Errorf("%s: relation %d misses %s → %s via %s", name, ci, g.SymName(from), g.SymName(to), g.ProdString(pi))
					}
				}
			}
			got := 0
			for _, row := range c.rel.Succ {
				got += len(row)
			}
			if got != want || c.rel.Stats.Nodes != g.NumNonterminals() {
				t.Errorf("%s: relation %d has %d edges over %d nodes, want %d over %d",
					name, ci, got, c.rel.Stats.Nodes, want, g.NumNonterminals())
			}
		}
	}
}
