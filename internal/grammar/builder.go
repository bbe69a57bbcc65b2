package grammar

import (
	"fmt"
	"slices"
	"strings"
)

// Builder assembles a Grammar incrementally.  Symbols are referred to by
// name; kinds are inferred: a name is a nonterminal iff it appears as the
// left-hand side of some rule, a terminal iff it was declared with
// Terminal (or a precedence declaration) or only ever appears on
// right-hand sides of rules.  Build performs the final numbering,
// augmentation and validation.
//
// Parse reads into a Builder as well.  Each name gets a provisional
// symbol the first time it is seen, and every right-hand side is
// appended to one flat arena of provisional symbols; Build renumbers
// them once.
type Builder struct {
	name      string
	ids       map[string]Sym // provisional symbol by name
	syms      []entry        // provisional symbols in first-seen order
	arena     []Sym          // every right-hand side, in rule order
	rules     []rule
	startName string
	precLevel int
	expectSR  int
	expectRR  int
	synth     map[string]bool // EBNF helpers already defined
	err       error           // first deferred error
}

// entry is a provisional symbol: what the grammar has said about a name.
// Its integers are 32-bit, as a grammar text is far below 2 GiB.
type entry struct {
	name  string
	level int32 // precedence level, 0 if none
	use   int32 // line of the first right-hand-side or %prec use in Parse, 0 if none
	final Sym   // the symbol's number, assigned by Build
	assoc Assoc
	flags uint8
}

// entry flags.
const (
	declared uint8 = 1 << iota // a terminal: %token, precedence, literal or "error"
	defined                    // the left-hand side of a rule
)

// rule is the production lhs → arena[lo:end] over provisional symbols,
// where lo is the end of the rule before, with prec the %prec symbol or
// NoSym.
type rule struct {
	lhs, prec Sym
	end       int32
}

// NewBuilder returns an empty Builder for a grammar with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, ids: map[string]Sym{}, expectSR: -1, expectRR: -1}
}

// intern returns name's provisional symbol, adding it on first sight.
func (b *Builder) intern(name string) Sym {
	s, ok := b.ids[name]
	if !ok {
		s = Sym(len(b.syms))
		b.ids[name] = s
		b.syms = append(b.syms, entry{name: name})
	}
	return s
}

// ExpectSR records a %expect declaration: the number of shift/reduce
// conflicts the grammar author accepts.
func (b *Builder) ExpectSR(n int) *Builder {
	b.expectSR = n
	return b
}

// ExpectRR records a %expect-rr declaration.
func (b *Builder) ExpectRR(n int) *Builder {
	b.expectRR = n
	return b
}

// Terminal declares the given names as terminals without precedence.
func (b *Builder) Terminal(names ...string) *Builder {
	for _, n := range names {
		b.syms[b.intern(n)].flags |= declared
	}
	return b
}

// Precedence declares a new precedence level (higher than all earlier
// levels) with the given associativity for the listed terminals, which
// are implicitly declared as terminals.
func (b *Builder) Precedence(assoc Assoc, names ...string) *Builder {
	b.precLevel++
	for _, n := range names {
		b.setPrec(b.intern(n), assoc)
	}
	return b
}

// setPrec declares s a terminal of the current precedence level.
func (b *Builder) setPrec(s Sym, assoc Assoc) {
	e := &b.syms[s]
	e.flags |= declared
	if e.level == 0 {
		e.level, e.assoc = int32(b.precLevel), assoc
	} else if b.err == nil {
		b.err = fmt.Errorf("terminal %q: precedence redeclared (was level %d)", e.name, e.level)
	}
}

// Rule adds the production lhs → rhs.  An empty rhs is an ε-production.
func (b *Builder) Rule(lhs string, rhs ...string) *Builder {
	return b.RuleWithPrec(lhs, "", rhs...)
}

// RuleWithPrec adds a production with an explicit %prec override naming a
// terminal whose precedence the production assumes.
func (b *Builder) RuleWithPrec(lhs string, precName string, rhs ...string) *Builder {
	prec := NoSym
	if precName != "" {
		prec = b.intern(precName)
	}
	l := b.intern(lhs)
	b.syms[l].flags |= defined
	for _, n := range rhs {
		b.arena = append(b.arena, b.intern(n))
	}
	b.rules = append(b.rules, rule{lhs: l, prec: prec, end: int32(len(b.arena))})
	return b
}

// Start sets the start nonterminal.  If never called, the LHS of the
// first rule is the start symbol.
func (b *Builder) Start(name string) *Builder {
	b.startName = name
	return b
}

// Build numbers the symbols, augments the grammar with
// $accept → start $end, resolves production precedences and validates
// the result.
//
// The numbering is $end, the declared terminals sorted by name, the
// terminals used without declaration in rule order, $accept, then the
// nonterminals in rule order.  The productions' right-hand sides share
// one arena of the final symbols; the Builder stays usable.
func (b *Builder) Build() (*Grammar, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.rules) == 0 {
		return nil, fmt.Errorf("grammar %q has no rules", b.name)
	}
	for _, e := range b.syms {
		if e.flags == declared|defined {
			return nil, fmt.Errorf("symbol %q declared as terminal but appears as a rule left-hand side", e.name)
		}
	}
	start := b.rules[0].lhs
	if b.startName != "" {
		s, ok := b.ids[b.startName]
		if !ok || b.syms[s].flags&defined == 0 {
			return nil, fmt.Errorf("start symbol %q has no rules", b.startName)
		}
		start = s
	}

	g := &Grammar{name: b.name, expectSR: b.expectSR, expectRR: b.expectRR}
	g.syms = make([]symbolInfo, 1, len(b.syms)+2) // with $end and $accept
	g.syms[0].name = "$end"
	number := func(s Sym) {
		e := &b.syms[s]
		e.final = Sym(len(g.syms))
		g.syms = append(g.syms, symbolInfo{name: e.name, prec: Precedence{Level: int(e.level), Assoc: e.assoc}})
	}
	// The names $end and $accept mean the augmenting symbols unless a
	// rule defines them, which makes them nonterminals of their own.  A
	// $accept no rule defines is still numbered as a terminal, unused.
	for s := range b.syms {
		b.syms[s].final = NoSym
	}
	if s, ok := b.ids["$end"]; ok && b.syms[s].flags&defined == 0 {
		b.syms[s].final = EOF
	}
	decl := make([]Sym, 0, len(b.syms))
	for s, e := range b.syms {
		if e.flags&declared != 0 && e.final == NoSym {
			decl = append(decl, Sym(s))
		}
	}
	slices.SortFunc(decl, func(x, y Sym) int { return strings.Compare(b.syms[x].name, b.syms[y].name) })
	for _, s := range decl {
		number(s)
	}
	for _, s := range b.arena {
		if b.syms[s].flags&defined == 0 && b.syms[s].final == NoSym {
			number(s)
		}
	}
	g.numTerms = len(g.syms)
	if s, ok := b.ids["$accept"]; ok && b.syms[s].flags&defined == 0 {
		b.syms[s].final = g.Accept()
	}
	g.syms = append(g.syms, symbolInfo{name: "$accept"})
	for _, r := range b.rules {
		if b.syms[r.lhs].final == NoSym {
			number(r.lhs)
		}
	}
	g.start = b.syms[start].final

	// Production 0, $accept → start $end, heads the arena.
	rhs := make([]Sym, len(b.arena)+2)
	rhs[0], rhs[1] = g.start, EOF
	for i, s := range b.arena {
		rhs[i+2] = b.syms[s].final
	}
	g.prods = make([]Production, 1, len(b.rules)+1)
	g.prods[0] = Production{Lhs: g.Accept(), Rhs: rhs[:2:2], PrecSym: NoSym}
	lo := 2
	for _, r := range b.rules {
		hi := int(r.end) + 2
		p := Production{Index: len(g.prods), Lhs: b.syms[r.lhs].final, Rhs: rhs[lo:hi:hi], PrecSym: NoSym}
		if r.prec != NoSym {
			ps := b.syms[r.prec].final
			if ps == NoSym || !g.IsTerminal(ps) {
				return nil, fmt.Errorf("production %q: %%prec symbol %q is not a terminal", b.syms[r.lhs].name, b.syms[r.prec].name)
			}
			p.Prec, p.PrecSym = g.syms[ps].prec, ps
			if !p.Prec.Defined() {
				return nil, fmt.Errorf("production %q: %%prec symbol %q has no declared precedence", b.syms[r.lhs].name, b.syms[r.prec].name)
			}
		} else {
			for i := len(p.Rhs) - 1; i >= 0; i-- {
				if g.IsTerminal(p.Rhs[i]) {
					p.Prec, p.PrecSym = g.syms[p.Rhs[i]].prec, p.Rhs[i]
					break
				}
			}
		}
		g.prods = append(g.prods, p)
		lo = hi
	}

	// Every nonterminal is the left-hand side of a rule, so each row of
	// prodsOf is a non-empty window of one index array.
	n := make([]int, g.NumNonterminals())
	for i := range g.prods {
		n[g.NtIndex(g.prods[i].Lhs)]++
	}
	idx := make([]int, len(g.prods))
	g.prodsOf = make([][]int, len(n))
	lo = 0
	for nt, k := range n {
		g.prodsOf[nt] = idx[lo : lo : lo+k]
		lo += k
	}
	for i := range g.prods {
		nt := g.NtIndex(g.prods[i].Lhs)
		g.prodsOf[nt] = append(g.prodsOf[nt], i)
	}
	return g, nil
}
