package grammar

import "fmt"

// Usefulness describes which symbols of a grammar are productive (derive
// some terminal string) and reachable (appear in some sentential form
// derivable from the start symbol).
type Usefulness struct {
	Productive []bool // indexed by nonterminal index
	Reachable  []bool // indexed by Sym (terminals are reachable iff used)
}

// Useless returns the names of all useless symbols: unproductive
// nonterminals and unreachable symbols, excluding the bookkeeping
// symbols $end and $accept.  Because reachability is computed through
// productive productions only, this includes terminals whose every use
// is inside an unproductive or unreachable production — declared, but
// never reachable from a productive derivation.
//
// The order is deterministic and documented: one pass over the symbols
// in ascending Sym order (all terminals first, then the nonterminals in
// declaration order), each useless symbol reported exactly once —
// unproductive nonterminals are not additionally listed as unreachable.
func (u *Usefulness) Useless(g *Grammar) []string {
	var out []string
	for s := 0; s < g.NumSymbols(); s++ {
		sym := Sym(s)
		if sym == EOF || sym == g.Accept() {
			continue
		}
		if g.IsNonterminal(sym) && !u.Productive[g.NtIndex(sym)] {
			out = append(out, g.SymName(sym))
			continue
		}
		if !u.Reachable[s] {
			out = append(out, g.SymName(sym))
		}
	}
	return out
}

// CheckUseful computes productive and reachable symbol sets.  Reachability
// is computed through productive productions only, matching the standard
// two-phase reduction algorithm (remove unproductive first, then
// unreachable).
func CheckUseful(g *Grammar) *Usefulness {
	u := &Usefulness{
		Productive: g.everyRhsHolds(true),
		Reachable:  make([]bool, g.NumSymbols()),
	}
	prodOK := func(p *Production) bool {
		for _, s := range p.Rhs {
			if g.IsNonterminal(s) && !u.Productive[g.NtIndex(s)] {
				return false
			}
		}
		return true
	}
	u.Reachable[g.Accept()] = true
	u.Reachable[EOF] = true
	work := []Sym{g.Accept()}
	for len(work) > 0 {
		a := work[len(work)-1]
		work = work[:len(work)-1]
		for _, pi := range g.ProdsOf(a) {
			p := &g.prods[pi]
			if !prodOK(p) {
				continue
			}
			for _, s := range p.Rhs {
				if !u.Reachable[s] {
					u.Reachable[s] = true
					if g.IsNonterminal(s) {
						work = append(work, s)
					}
				}
			}
			// A %prec pseudo-token (e.g. yacc's UMINUS) is "used" even
			// though it appears in no right-hand side.
			if p.PrecSym != NoSym {
				u.Reachable[p.PrecSym] = true
			}
		}
	}
	return u
}

// Reduce returns an equivalent grammar containing only useful symbols and
// productions.  If g is already reduced, g itself is returned.  Reduce
// fails if the start symbol is unproductive (the grammar generates no
// terminal string).
func Reduce(g *Grammar) (*Grammar, error) {
	u := CheckUseful(g)
	if !u.Productive[g.NtIndex(g.start)] {
		return nil, fmt.Errorf("grammar %q: start symbol %q derives no terminal string", g.name, g.SymName(g.start))
	}
	if len(u.Useless(g)) == 0 {
		return g, nil
	}

	b := NewBuilder(g.name)
	if g.expectSR >= 0 {
		b.ExpectSR(g.expectSR)
	}
	if g.expectRR >= 0 {
		b.ExpectRR(g.expectRR)
	}
	for t := 1; t < g.NumTerminals(); t++ { // skip $end
		if u.Reachable[t] {
			b.Terminal(g.SymName(Sym(t)))
		}
	}
	// Reconstruct precedence levels in original level order.
	maxLevel := 0
	for t := 1; t < g.NumTerminals(); t++ {
		if p := g.TermPrec(Sym(t)); p.Level > maxLevel {
			maxLevel = p.Level
		}
	}
	for lvl := 1; lvl <= maxLevel; lvl++ {
		var names []string
		var assoc Assoc
		for t := 1; t < g.NumTerminals(); t++ {
			if p := g.TermPrec(Sym(t)); p.Level == lvl {
				names = append(names, g.SymName(Sym(t)))
				assoc = p.Assoc
			}
		}
		// Declare the level even if all its terminals turned out to be
		// unreachable, to keep surviving level numbers aligned.
		b.Precedence(assoc, names...)
	}

	for i := 1; i < len(g.prods); i++ { // skip the augmented production
		p := &g.prods[i]
		if !u.Reachable[p.Lhs] || !u.Productive[g.NtIndex(p.Lhs)] {
			continue
		}
		keep := true
		for _, s := range p.Rhs {
			if g.IsNonterminal(s) && !u.Productive[g.NtIndex(s)] {
				keep = false
				break
			}
			if !u.Reachable[s] {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		rhs := make([]string, len(p.Rhs))
		for j, s := range p.Rhs {
			rhs[j] = g.SymName(s)
		}
		if p.PrecSym != NoSym && !rhsContains(p.Rhs, p.PrecSym) {
			b.RuleWithPrec(g.SymName(p.Lhs), g.SymName(p.PrecSym), rhs...)
		} else {
			b.Rule(g.SymName(p.Lhs), rhs...)
		}
	}
	b.Start(g.SymName(g.start))
	return b.Build()
}

func rhsContains(rhs []Sym, s Sym) bool {
	for _, r := range rhs {
		if r == s {
			return true
		}
	}
	return false
}
