package export

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
)

// This file is the report's one encoding: a reflection-free writer
// that goes straight from an analysis to the bytes of
// json.MarshalIndent(Build(...), "", "  ").  It mirrors Build and the
// JSON tags of export.go by hand, so a field added there must be added
// here too; Build with encoding/json stays the oracle the tests compare
// against (encode_test.go).

// AppendAnalysis appends the report of an analysis as indented JSON,
// laid out as it is when nested depth levels deep in a document
// indented with two spaces per level: depth 0 gives exactly
// json.MarshalIndent(Build(a, sets, t, dp, method), "", "  "), and
// depth 1 gives the bytes of a field value one object down.  dp may be
// nil for non-DP methods, as for Build.
//
// Nothing is formatted into intermediate strings: each symbol name is
// escaped once, items and productions are spelled from the escaped
// names (escaping commutes with joining names by the ASCII-led
// separators " → ", " " and " ."), and each state's transitions are
// written in the by-name order encoding/json gives a map.
func AppendAnalysis(dst []byte, depth int, a *lr0.Automaton, sets [][]bitset.Set, t *lalrtable.Tables, dp *core.Result, method string) []byte {
	n := newNames(a.G)
	d := depth + 1
	dst = AppendAnalysisHead(dst, depth, a.G.Name())
	dst = n.appendGrammar(dst, d)
	dst = key(dst, d, "method", false)
	dst = AppendString(dst, method)
	dst = key(dst, d, "states", false)
	dst = n.appendStates(dst, d, a, sets)
	dst = key(dst, d, "conflicts", false)
	dst = n.appendConflicts(dst, d, t.Conflicts)
	if dp != nil {
		dst = key(dst, d, "relations", false)
		dst = appendRelations(dst, d, dp)
	}
	dst = key(dst, d, "adequate", false)
	dst = strconv.AppendBool(dst, t.Adequate())
	return closeObject(dst, depth)
}

// AppendAnalysisHead appends the bytes AppendAnalysis starts with at
// depth for a grammar named name: the report's opening brace through
// the grammar's name.  The name is the one part of a report that the
// grammar text and method do not decide; Parse takes it from the file
// name.
func AppendAnalysisHead(dst []byte, depth int, name string) []byte {
	dst = append(dst, '{')
	dst = key(dst, depth+1, "grammar", true)
	dst = append(dst, '{')
	dst = key(dst, depth+2, "name", true)
	return AppendString(dst, name)
}

// names holds a grammar's symbol names escaped once, and the order
// encoding/json sorts them in as map keys.
type names struct {
	g   *grammar.Grammar
	esc []byte  // every symbol's escaped name, unquoted, back to back
	off []int32 // symbol s's escaped name is esc[off[s]:off[s+1]]
	// rank is s's position among the symbols sorted by (name, s).
	rank []int32
	// scratch holds one state's transitions while they are sorted.
	scratch []lr0.Transition
}

func newNames(g *grammar.Grammar) *names {
	ns := g.NumSymbols()
	size := 0
	for s := range ns {
		size += len(g.SymName(grammar.Sym(s)))
	}
	ints := make([]int32, 3*ns+1)
	n := &names{g: g, esc: make([]byte, 0, size+size/8), off: ints[:ns+1], rank: ints[ns+1 : 2*ns+1]}
	byName := ints[2*ns+1:]
	for s := range ns {
		n.esc = appendEscaped(n.esc, g.SymName(grammar.Sym(s)))
		n.off[s+1] = int32(len(n.esc))
		byName[s] = int32(s)
	}
	slices.SortFunc(byName, func(x, y int32) int {
		if c := strings.Compare(g.SymName(grammar.Sym(x)), g.SymName(grammar.Sym(y))); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	for r, s := range byName {
		n.rank[s] = int32(r)
	}
	return n
}

// sym appends the escaped name of s, unquoted.
func (n *names) sym(dst []byte, s grammar.Sym) []byte {
	return append(dst, n.esc[n.off[s]:n.off[s+1]]...)
}

// quoted appends the name of s as a JSON string.
func (n *names) quoted(dst []byte, s grammar.Sym) []byte {
	dst = append(dst, '"')
	dst = n.sym(dst, s)
	return append(dst, '"')
}

// prod appends production i as a JSON string, spelled as
// Grammar.ProdString spells it.
func (n *names) prod(dst []byte, i int) []byte {
	p := n.g.Prod(i)
	dst = append(dst, '"')
	dst = n.sym(dst, p.Lhs)
	dst = append(dst, " → "...)
	if len(p.Rhs) == 0 {
		dst = append(dst, "ε"...)
	}
	for j, s := range p.Rhs {
		if j > 0 {
			dst = append(dst, ' ')
		}
		dst = n.sym(dst, s)
	}
	return append(dst, '"')
}

// item appends an LR(0) item as a JSON string, spelled as
// Automaton.ItemString spells it.
func (n *names) item(dst []byte, it lr0.Item) []byte {
	p := n.g.Prod(int(it.Prod))
	dst = append(dst, '"')
	dst = n.sym(dst, p.Lhs)
	dst = append(dst, " →"...)
	for j, s := range p.Rhs {
		if j == int(it.Dot) {
			dst = append(dst, " ."...)
		}
		dst = append(dst, ' ')
		dst = n.sym(dst, s)
	}
	if int(it.Dot) == len(p.Rhs) {
		dst = append(dst, " ."...)
	}
	return append(dst, '"')
}

// appendGrammar appends the grammar object after the name
// AppendAnalysisHead wrote.
func (n *names) appendGrammar(dst []byte, depth int) []byte {
	g := n.g
	d := depth + 1
	dst = key(dst, d, "terminals", false)
	for i := range g.NumTerminals() {
		dst = elem(dst, d, i)
		dst = n.quoted(dst, grammar.Sym(i))
	}
	dst = closeArray(dst, d, g.NumTerminals())
	dst = key(dst, d, "nonterminals", false)
	for i := range g.NumNonterminals() {
		dst = elem(dst, d, i)
		dst = n.quoted(dst, g.NtSym(i))
	}
	dst = closeArray(dst, d, g.NumNonterminals())
	dst = key(dst, d, "productions", false)
	for i := range g.Productions() {
		dst = elem(dst, d, i)
		dst = n.prod(dst, i)
	}
	dst = closeArray(dst, d, len(g.Productions()))
	dst = key(dst, d, "start", false)
	dst = n.quoted(dst, g.Start())
	return closeObject(dst, depth)
}

func (n *names) appendStates(dst []byte, depth int, a *lr0.Automaton, sets [][]bitset.Set) []byte {
	for q, s := range a.States {
		dst = elem(dst, depth, q)
		d := depth + 2
		dst = append(dst, '{')
		dst = key(dst, d, "index", true)
		dst = strconv.AppendInt(dst, int64(q), 10)
		dst = key(dst, d, "kernel", false)
		for i, it := range s.Kernel {
			dst = elem(dst, d, i)
			dst = n.item(dst, it)
		}
		dst = closeArray(dst, d, len(s.Kernel))
		if len(s.Transitions) > 0 {
			dst = key(dst, d, "transitions", false)
			dst = n.appendTransitions(dst, d, s.Transitions)
		}
		reds := 0
		for i, pi := range s.Reductions {
			if pi == 0 {
				continue
			}
			if reds == 0 {
				dst = key(dst, d, "reductions", false)
			}
			dst = elem(dst, d, reds)
			reds++
			dst = n.appendReduction(dst, d+1, pi, sets[q][i])
		}
		if reds > 0 {
			dst = closeArray(dst, d, reds)
		}
		dst = closeObject(dst, depth+1)
	}
	return closeArray(dst, depth, len(a.States))
}

// appendTransitions writes a state's non-empty transitions as the map
// Build makes of them: keyed by symbol name, in sorted key order.
func (n *names) appendTransitions(dst []byte, depth int, ts []lr0.Transition) []byte {
	byName := append(n.scratch[:0], ts...)
	slices.SortFunc(byName, func(x, y lr0.Transition) int {
		return cmp.Compare(n.rank[x.Sym], n.rank[y.Sym])
	})
	n.scratch = byName
	dst = append(dst, '{')
	first := true
	for i, tr := range byName {
		// Build's map keeps the last of several symbols sharing a name,
		// which sorts last among them here.
		if i+1 < len(byName) && n.g.SymName(tr.Sym) == n.g.SymName(byName[i+1].Sym) {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = indent(dst, depth+1)
		dst = n.quoted(dst, tr.Sym)
		dst = append(dst, ": "...)
		dst = strconv.AppendInt(dst, int64(tr.To), 10)
	}
	return closeObject(dst, depth)
}

func (n *names) appendReduction(dst []byte, depth, prod int, la bitset.Set) []byte {
	d := depth + 1
	dst = append(dst, '{')
	dst = key(dst, d, "production", true)
	dst = n.prod(dst, prod)
	dst = key(dst, d, "lookahead", false)
	terms := 0
	la.ForEach(func(term int) {
		dst = elem(dst, d, terms)
		dst = n.quoted(dst, grammar.Sym(term))
		terms++
	})
	dst = closeArray(dst, d, terms)
	return closeObject(dst, depth)
}

func (n *names) appendConflicts(dst []byte, depth int, cs []lalrtable.Conflict) []byte {
	for i := range cs {
		c := &cs[i]
		dst = elem(dst, depth, i)
		d := depth + 2
		dst = append(dst, '{')
		dst = key(dst, d, "state", true)
		dst = strconv.AppendInt(dst, int64(c.State), 10)
		dst = key(dst, d, "terminal", false)
		dst = n.quoted(dst, c.Terminal)
		dst = key(dst, d, "kind", false)
		if c.Kind == lalrtable.ShiftReduce {
			dst = append(dst, `"shift/reduce"`...)
		} else {
			dst = append(dst, `"reduce/reduce"`...)
		}
		dst = key(dst, d, "productions", false)
		for j, p := range c.Prods {
			dst = elem(dst, d, j)
			dst = n.prod(dst, p)
		}
		dst = closeArray(dst, d, len(c.Prods))
		dst = key(dst, d, "resolution", false)
		dst = AppendString(dst, c.Resolution.String())
		dst = key(dst, d, "unresolved", false)
		dst = strconv.AppendBool(dst, c.Resolution == lalrtable.DefaultShift || c.Resolution == lalrtable.DefaultEarlyRule)
		dst = closeObject(dst, depth+1)
	}
	return closeArray(dst, depth, len(cs))
}

func appendRelations(dst []byte, depth int, dp *core.Result) []byte {
	st := dp.Stats()
	d := depth + 1
	dst = append(dst, '{')
	dst = key(dst, d, "ntTransitions", true)
	dst = strconv.AppendInt(dst, int64(st.NtTransitions), 10)
	dst = key(dst, d, "readsEdges", false)
	dst = strconv.AppendInt(dst, int64(st.ReadsEdges), 10)
	dst = key(dst, d, "includesEdges", false)
	dst = strconv.AppendInt(dst, int64(st.IncludesEdges), 10)
	dst = key(dst, d, "lookbackEdges", false)
	dst = strconv.AppendInt(dst, int64(st.LookbackEdges), 10)
	dst = key(dst, d, "readsCyclic", false)
	dst = strconv.AppendBool(dst, st.ReadsCyclic)
	dst = key(dst, d, "includesCyclic", false)
	dst = strconv.AppendBool(dst, st.IncludesCyclic)
	dst = key(dst, d, "notLRk", false)
	dst = strconv.AppendBool(dst, dp.NotLRk())
	return closeObject(dst, depth)
}

// elem starts element i of an array whose bracket opens at depth: the
// bracket itself or the separating comma, then the line break and
// indentation.
func elem(dst []byte, depth, i int) []byte {
	if i == 0 {
		dst = append(dst, '[')
	} else {
		dst = append(dst, ',')
	}
	return indent(dst, depth+1)
}

// closeArray ends an array of count elements started with elem.  Build
// appends every slice from nil, so an empty one encodes as null.
func closeArray(dst []byte, depth, count int) []byte {
	if count == 0 {
		return append(dst, "null"...)
	}
	dst = indent(dst, depth)
	return append(dst, ']')
}

// key starts an object member at depth: the separating comma unless it
// is the first member, the line break and indentation, and the quoted
// name.  Names are the ASCII tags of export.go, which need no escaping.
func key(dst []byte, depth int, name string, first bool) []byte {
	if !first {
		dst = append(dst, ',')
	}
	dst = indent(dst, depth)
	dst = append(dst, '"')
	dst = append(dst, name...)
	return append(dst, `": `...)
}

// closeObject ends a non-empty object whose brace opened at depth.
func closeObject(dst []byte, depth int) []byte {
	dst = indent(dst, depth)
	return append(dst, '}')
}

// indent starts a new line indented depth levels of two spaces.
func indent(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for i := 0; i < depth; i++ {
		dst = append(dst, "  "...)
	}
	return dst
}

// plain marks the ASCII bytes AppendString copies through unescaped.
var plain = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

// AppendString appends s as a JSON string with encoding/json's
// escaping: the HTML-sensitive <, > and & as \u003c, \u003e and
// \u0026; \b, \f, \n, \r, \t in their short forms and other control
// bytes as \u00XX; each invalid UTF-8 byte as \ufffd; U+2028 and
// U+2029 as \u2028 and \u2029.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = appendEscaped(dst, s)
	return append(dst, '"')
}

// appendEscaped appends the body of AppendString's JSON string, without
// the quotes.
func appendEscaped(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if plain[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}
