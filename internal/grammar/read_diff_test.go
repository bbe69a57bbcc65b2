package grammar_test

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/grammar"
	"repro/internal/grammars"
)

// sameResult reports how two (grammar, error) results differ, or "" if
// they are the same: the same error text, or grammars equal in every
// field (symbols, their order, names and precedences, productions with
// their Prec and PrecSym, ProdsOf, the start symbol and the %expect
// budgets).
func sameResult(got, want *grammar.Grammar, gotErr, wantErr error) string {
	switch {
	case gotErr != nil || wantErr != nil:
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
		}
	case !reflect.DeepEqual(got, want):
		return fmt.Sprintf("grammar\n%s\nwant\n%s", describe(got), describe(want))
	}
	return ""
}

func describe(g *grammar.Grammar) string {
	var b strings.Builder
	for s := grammar.Sym(0); int(s) < g.NumSymbols(); s++ {
		fmt.Fprintf(&b, "%d %s %v; ", s, g.SymName(s), g.TermPrec(s))
	}
	sr, rr := g.Expect()
	fmt.Fprintf(&b, "\nstart %d terminals %d expect %d/%d\n", g.Start(), g.NumTerminals(), sr, rr)
	for _, p := range g.Productions() {
		fmt.Fprintf(&b, "%s  prec %v/%d\n", g.ProdString(p.Index), p.Prec, p.PrecSym)
	}
	return b.String()
}

func checkParse(t *testing.T, label, filename, src string) {
	t.Helper()
	got, gotErr := grammar.Parse(filename, src)
	want, wantErr := grammar.OracleParse(filename, src)
	if d := sameResult(got, want, gotErr, wantErr); d != "" {
		t.Errorf("%s: Parse differs from the old reader: %s", label, d)
	}
}

// replay is the Builder call sequence that rebuilds g: its precedence
// levels, its other terminals, its rules with their %prec overrides, its
// start symbol and its %expect budgets.
func replay(g *grammar.Grammar) []grammar.Op {
	var ops []grammar.Op
	levels := map[int][]string{}
	assoc := map[int]grammar.Assoc{}
	maxLevel := 0
	for t := grammar.Sym(1); int(t) < g.NumTerminals(); t++ {
		if p := g.TermPrec(t); p.Defined() {
			levels[p.Level] = append(levels[p.Level], g.SymName(t))
			assoc[p.Level] = p.Assoc
			maxLevel = max(maxLevel, p.Level)
		} else if !strings.HasPrefix(g.SymName(t), "'") {
			ops = append(ops, grammar.Op{Kind: "term", Names: []string{g.SymName(t)}})
		}
	}
	for l := 1; l <= maxLevel; l++ {
		ops = append(ops, grammar.Op{Kind: "prec", Assoc: assoc[l], Names: levels[l]})
	}
	for _, p := range g.Productions()[1:] {
		op := grammar.Op{Kind: "rule", Name: g.SymName(p.Lhs), Names: []string{}}
		for _, s := range p.Rhs {
			op.Names = append(op.Names, g.SymName(s))
		}
		if p.Prec.Defined() {
			op.Prec = g.SymName(p.PrecSym)
		}
		ops = append(ops, op)
	}
	sr, rr := g.Expect()
	return append(ops,
		grammar.Op{Kind: "start", Name: g.SymName(g.Start())},
		grammar.Op{Kind: "sr", N: sr}, grammar.Op{Kind: "rr", N: rr})
}

func checkReplay(t *testing.T, label string, g *grammar.Grammar) {
	t.Helper()
	got, want, gotErr, wantErr := grammar.BuildBoth(g.Name(), replay(g))
	if d := sameResult(got, want, gotErr, wantErr); d != "" {
		t.Errorf("%s: Builder differs from the old builder: %s", label, d)
	}
}

// TestParseMatchesOldReader: every corpus grammar and every mutant of
// seeds 1–6 reads to the same Grammar as through the old reader, and
// the same Builder calls build the same Grammar as the old builder.
func TestParseMatchesOldReader(t *testing.T) {
	for _, e := range grammars.All() {
		checkParse(t, e.Name, e.Name+".y", e.Src)
		checkReplay(t, e.Name, grammars.MustLoad(e.Name))
		for seed := int64(1); seed <= 6; seed++ {
			for i, m := range grammars.Mutations(e.Src, seed, 6) {
				label := fmt.Sprintf("%s mutant %d/%d", e.Name, seed, i)
				checkParse(t, label, e.Name+"-mutant.y", m)
				if g, err := grammar.Parse("m.y", m); err == nil {
					checkReplay(t, label, g)
				}
			}
		}
	}
}

// TestParseRejectsLikeOldReader pins every reject of the reader and the
// builder, and the line numbers the scanner reports after comments,
// actions and strings, against the old reader.
func TestParseRejectsLikeOldReader(t *testing.T) {
	for i, src := range []string{
		"", "x", "%%", "%%\n", "/* x", "%{ x", "%{ a %}\n%%\ns : 'a' ;", "'", "%%\ns : 'a",
		"%%\ns : '' ;", "%%\ns : '\\q' ;", "%%\ns : '\\", "% x", "%foo", "%token \"x",
		"%token <x", "%%\ns : { x", "%%\ns : @", "%start 'a'", "%union x", "%expect x",
		"%expect-rr x", "%expect 3 %expect-rr 4\n%%\ns : 'a' ;", "%prec", "%token \"a\"",
		"%token %%", "%%\n'a' : x", "%token A\n%%\nA : 'a' ;", "%%\ns 'a'",
		"%%\ns : %empty A", "%%\ns : A %empty", "%%\ns : \"x\"", "%%\ns : %prec ;",
		"%%\ns : %token", "%%\ns : 12", "%%\ns : <t>", "%%\n: ;", "%%\ns : :",
		"%%\ns : 'a' 'b' : x", "%%\ns : error : x", "%token P \"p\"\n%%\ns : \"p\" : x",
		"%%\ns : X ;", "%%\ns : Y X ;\nt : X ;", "%%\ns : 'a' %prec Z ;",
		"%left A\n%left A\n%%\ns : A ;", "%left A A\n%%\ns : @", "%left <t> %%",
		"%%\nerror : 'a' ; s : error ;", "%start t\n%%\ns : 'a' ;",
		"%%\ns : 'a' %prec s ;", "%token B\n%%\ns : 'a' %prec B ;",
		"%token A \"x\\\ny\"\n%%\ns : Q ;",
		"%%\ns : 'a' { // c\n /* \n */ \"s\\\n\" '\\'' }\n X ;",
		"%%\ns : 'a' { /* x", "%%\ns : 'a' { // x",
		"%token P \"+\"\n%%\ns : %empty \"+\" ;",
		"# c\r\n%token A // c\r\n%%\r\ns : A\r\n  | s A\r\n",
		"%%\nsé : 'a' ;", "%%\n\xff", "%\xc3\xa9", "%%\ns : 'a' ;\n%%\n@@@ '",
		"%%\ns : a : 'x' b : 'y' ;", "%left '+'\n%%\ns : s '+' s | 'n' ; t : %prec '+' 'n' s",
		"%token A 258 <t> B\n%type <t> s t\n%define api.pure\n%debug\n%%\ns : A t | ; t : B",
		"%%\ns : 'a' 'b' s t : 'c'", "%token A { x }\n%%\ns : A ;", "%token A B\n%%\ns : A { x } B ;", "%%\ns : '\\n' '\\t' '\\\\' '\\''",
	} {
		checkParse(t, fmt.Sprintf("input %d %q", i, src), "in.y", src)
	}
}

// TestBuilderMatchesOldBuilder covers the Builder-only rejects and
// programmatic names the reader cannot produce.
func TestBuilderMatchesOldBuilder(t *testing.T) {
	rule := func(lhs string, rhs ...string) grammar.Op {
		return grammar.Op{Kind: "rule", Name: lhs, Names: rhs}
	}
	for i, ops := range [][]grammar.Op{
		nil,
		{{Kind: "term", Names: []string{"a"}}, rule("a", "x"), rule("x", "a")},
		{rule("s", "t"), rule("t"), {Kind: "start", Name: "nope"}},
		{rule("s", "t"), {Kind: "start", Name: "t"}},
		{{Kind: "rule", Name: "s", Prec: "P", Names: []string{"a"}}},
		{{Kind: "prec", Names: []string{"a", "b"}}, {Kind: "prec", Assoc: grammar.AssocLeft, Names: []string{"b"}}, rule("s", "a")},
		{{Kind: "prec"}, {Kind: "prec", Assoc: grammar.AssocRight, Names: []string{"x"}}, rule("s", "x", "$end")},
		{{Kind: "term", Names: []string{"$end", "z", "y"}}, rule("s", "y", "w", "v", "w"), rule("s", "s", "x")},
		{{Kind: "prec", Names: []string{"p"}}, {Kind: "rule", Name: "s", Prec: "p", Names: []string{"x", "p"}}, {Kind: "sr", N: 2}},
		{rule("s", "s", "$end", "$accept"), rule("s", "a"), rule("$end", "b"), rule("$accept", "c")},
		{{Kind: "prec", Names: []string{"$accept", "$end"}}, rule("s", "a", "$accept"), rule("s", "$end", "b")},
		{{Kind: "term", Names: []string{"$end"}}, rule("$end", "b"), rule("s", "$end")},
		{rule("s", "$accept", "$end", "z"), {Kind: "rule", Name: "s", Prec: "$end", Names: []string{"y"}}},
		{{Kind: "prec", Names: []string{"y"}}, {Kind: "rule", Name: "s", Prec: "$accept", Names: []string{"y"}}},
		{rule("$accept", "s"), rule("s", "a"), {Kind: "start", Name: "$accept"}},
	} {
		got, want, gotErr, wantErr := grammar.BuildBoth("g", ops)
		if d := sameResult(got, want, gotErr, wantErr); d != "" {
			t.Errorf("ops %d: Builder differs from the old builder: %s", i, d)
		}
	}
}

// TestParseLongRuleChainIsIterative reads 50,000 rules, none closed by
// a ';', under a 1 MiB stack: a reader that recursed once per rule
// would need tens of MiB and abort the test binary.
func TestParseLongRuleChainIsIterative(t *testing.T) {
	const n = 50000
	var b strings.Builder
	b.WriteString("%%\n")
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, "r%d : r%d 'a'\n", i, i+1)
	}
	fmt.Fprintf(&b, "r%d : 'a' ;\n", n-1)
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
	g, err := grammar.Parse("chain.y", b.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Productions()); got != n+1 {
		t.Fatalf("%d productions, want %d", got, n+1)
	}
	if got := g.NumNonterminals(); got != n+1 {
		t.Fatalf("%d nonterminals, want %d", got, n+1)
	}
}
