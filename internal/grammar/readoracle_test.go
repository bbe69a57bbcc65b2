package grammar

// The grammar reader as it was before symbols were interned while
// reading: a token-by-token reader that hands every alternative to a
// string-keyed builder, which numbers the symbols through maps and
// gives each production its own right-hand side.  It is kept verbatim
// (renamed) as the oracle for the differential tests in
// read_diff_test.go: Parse and Builder must produce the same Grammar,
// and reject with the same error text, as this path.

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// oracleParse is the old Parse.
func oracleParse(filename, src string) (*Grammar, error) {
	p := &oracleReader{
		sc:    oracleScanner{file: filename, src: src, line: 1},
		b:     newOracleBuilder(NameOf(filename)),
		decl:  map[string]bool{},
		lhs:   map[string]bool{},
		alias: map[string]string{},
	}
	if err := p.run(); err != nil {
		return nil, err
	}
	return p.b.Build()
}

type oracleScanner struct {
	file string
	src  string
	pos  int
	line int
}

func (s *oracleScanner) errf(line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", s.file, line, fmt.Sprintf(format, args...))
}

func (s *oracleScanner) next() (token, error) {
	for {
		if s.pos >= len(s.src) {
			return token{kind: tEOF, line: s.line}, nil
		}
		c := s.src[s.pos]
		switch {
		case c == '\n':
			s.line++
			s.pos++
		case c == ' ' || c == '\t' || c == '\r':
			s.pos++
		case c == '#':
			s.skipLine()
		case c == '/' && s.pos+1 < len(s.src) && s.src[s.pos+1] == '/':
			s.skipLine()
		case c == '/' && s.pos+1 < len(s.src) && s.src[s.pos+1] == '*':
			start := s.line
			s.pos += 2
			for {
				if s.pos+1 >= len(s.src) {
					return token{}, s.errf(start, "unterminated /* comment")
				}
				if s.src[s.pos] == '*' && s.src[s.pos+1] == '/' {
					s.pos += 2
					break
				}
				if s.src[s.pos] == '\n' {
					s.line++
				}
				s.pos++
			}
		default:
			return s.token()
		}
	}
}

func (s *oracleScanner) skipLine() {
	for s.pos < len(s.src) && s.src[s.pos] != '\n' {
		s.pos++
	}
}

func (s *oracleScanner) token() (token, error) {
	line := s.line
	c := s.src[s.pos]
	switch {
	case c == ':':
		s.pos++
		return token{kind: tColon, line: line}, nil
	case c == '|':
		s.pos++
		return token{kind: tPipe, line: line}, nil
	case c == ';':
		s.pos++
		return token{kind: tSemi, line: line}, nil
	case c == '\'':
		s.pos++
		start := s.pos
		var buf strings.Builder
		for {
			if s.pos >= len(s.src) || s.src[s.pos] == '\n' {
				return token{}, s.errf(line, "unterminated character literal")
			}
			if s.src[s.pos] == '\'' {
				break
			}
			if s.src[s.pos] == '\\' && s.pos+1 < len(s.src) {
				s.pos++
				switch s.src[s.pos] {
				case 'n':
					buf.WriteByte('\n')
				case 't':
					buf.WriteByte('\t')
				case '\\', '\'':
					buf.WriteByte(s.src[s.pos])
				default:
					return token{}, s.errf(line, "unknown escape \\%c in literal", s.src[s.pos])
				}
				s.pos++
				continue
			}
			buf.WriteByte(s.src[s.pos])
			s.pos++
		}
		s.pos++
		if buf.Len() == 0 && s.pos-start == 1 {
			return token{}, s.errf(line, "empty character literal")
		}
		return token{kind: tLit, text: "'" + buf.String() + "'", line: line}, nil
	case c == '%':
		if s.pos+1 < len(s.src) && s.src[s.pos+1] == '%' {
			s.pos += 2
			return token{kind: tMark, line: line}, nil
		}
		if s.pos+1 < len(s.src) && s.src[s.pos+1] == '{' {
			// %{ … %} prologue block (bison): skipped entirely.
			s.pos += 2
			for {
				if s.pos+1 >= len(s.src) {
					return token{}, s.errf(line, "unterminated %%{ block")
				}
				if s.src[s.pos] == '%' && s.src[s.pos+1] == '}' {
					s.pos += 2
					return s.next()
				}
				if s.src[s.pos] == '\n' {
					s.line++
				}
				s.pos++
			}
		}
		s.pos++
		start := s.pos
		for s.pos < len(s.src) && (isIdentChar(rune(s.src[s.pos])) || s.src[s.pos] == '-') {
			s.pos++
		}
		if s.pos == start {
			return token{}, s.errf(line, "stray %%")
		}
		kw := "%" + s.src[start:s.pos]
		switch kw {
		case "%token", "%left", "%right", "%nonassoc", "%start", "%prec", "%empty", "%precedence",
			"%type", "%union", "%expect", "%define", "%debug", "%verbose", "%locations",
			"%pure-parser", "%defines", "%parse-param", "%lex-param", "%expect-rr":
			return token{kind: tKeyword, text: kw, line: line}, nil
		}
		return token{}, s.errf(line, "unknown directive %s", kw)
	case c == '"':
		s.pos++
		start := s.pos
		for s.pos < len(s.src) && s.src[s.pos] != '"' && s.src[s.pos] != '\n' {
			if s.src[s.pos] == '\\' {
				s.pos++
			}
			s.pos++
		}
		if s.pos >= len(s.src) || s.src[s.pos] != '"' {
			return token{}, s.errf(line, "unterminated string")
		}
		text := s.src[start:s.pos]
		s.pos++
		return token{kind: tString, text: text, line: line}, nil
	case c == '<':
		start := s.pos
		for s.pos < len(s.src) && s.src[s.pos] != '>' && s.src[s.pos] != '\n' {
			s.pos++
		}
		if s.pos >= len(s.src) || s.src[s.pos] != '>' {
			// Not a tag after all; report the '<' itself.
			s.pos = start
			return token{}, s.errf(line, "unexpected character '<'")
		}
		s.pos++
		return token{kind: tTag, line: line}, nil
	case c == '{':
		// Balanced-brace semantic action, respecting strings, character
		// literals and comments inside.
		depth := 0
		for s.pos < len(s.src) {
			switch s.src[s.pos] {
			case '{':
				depth++
				s.pos++
			case '}':
				depth--
				s.pos++
				if depth == 0 {
					return token{kind: tAction, line: line}, nil
				}
			case '\n':
				s.line++
				s.pos++
			case '\'', '"':
				q := s.src[s.pos]
				s.pos++
				for s.pos < len(s.src) && s.src[s.pos] != q {
					if s.src[s.pos] == '\\' {
						s.pos++
					}
					if s.pos < len(s.src) && s.src[s.pos] == '\n' {
						s.line++
					}
					s.pos++
				}
				s.pos++
			case '/':
				if s.pos+1 < len(s.src) && s.src[s.pos+1] == '/' {
					s.skipLine()
				} else if s.pos+1 < len(s.src) && s.src[s.pos+1] == '*' {
					s.pos += 2
					for s.pos+1 < len(s.src) && !(s.src[s.pos] == '*' && s.src[s.pos+1] == '/') {
						if s.src[s.pos] == '\n' {
							s.line++
						}
						s.pos++
					}
					s.pos += 2
				} else {
					s.pos++
				}
			default:
				s.pos++
			}
		}
		return token{}, s.errf(line, "unterminated { action")
	case c >= '0' && c <= '9':
		start := s.pos
		for s.pos < len(s.src) && s.src[s.pos] >= '0' && s.src[s.pos] <= '9' {
			s.pos++
		}
		return token{kind: tNumber, text: s.src[start:s.pos], line: line}, nil
	default:
		// Identifiers are decoded as UTF-8; an invalid encoding (or any
		// other unexpected rune) is an error, never an empty token — an
		// empty token at an unadvanced position would loop forever.
		r, _ := utf8.DecodeRuneInString(s.src[s.pos:])
		if r == utf8.RuneError || !isIdentStart(r) {
			return token{}, s.errf(line, "unexpected character %q", c)
		}
		start := s.pos
		for s.pos < len(s.src) {
			r, sz := utf8.DecodeRuneInString(s.src[s.pos:])
			if r == utf8.RuneError || !isIdentChar(r) {
				break
			}
			s.pos += sz
		}
		return token{kind: tIdent, text: s.src[start:s.pos], line: line}, nil
	}
}

type oracleReader struct {
	sc   oracleScanner
	b    *oracleBuilder
	decl map[string]bool // names declared as terminals (or literal-quoted)
	lhs  map[string]bool
	// alias maps bison string-token aliases ("+", "if") to the declared
	// terminal they stand for.
	alias map[string]string
	// deferred RHS symbol checks: bare identifiers must end up declared
	// or defined as an LHS.
	uses []oracleUse
}

type oracleUse struct {
	name string
	line int
}

func (p *oracleReader) run() error {
	tok, err := p.sc.next()
	if err != nil {
		return err
	}
	// Declarations section.
	for tok.kind != tMark {
		if tok.kind == tEOF {
			return p.sc.errf(tok.line, "missing %%%% separator before rules")
		}
		if tok.kind != tKeyword {
			return p.sc.errf(tok.line, "expected declaration, got %s", tokDesc(tok))
		}
		switch tok.text {
		case "%token":
			tok, err = p.declTerminals(func(name string) { p.b.Terminal(name) })
		case "%left":
			tok, err = p.declPrec(AssocLeft)
		case "%right":
			tok, err = p.declPrec(AssocRight)
		case "%nonassoc":
			tok, err = p.declPrec(AssocNonassoc)
		case "%precedence":
			tok, err = p.declPrec(AssocNone)
		case "%start":
			tok, err = p.sc.next()
			if err == nil {
				if tok.kind != tIdent {
					return p.sc.errf(tok.line, "%%start requires a nonterminal name")
				}
				p.b.Start(tok.text)
				tok, err = p.sc.next()
			}
		case "%type", "%define", "%parse-param", "%lex-param":
			// Bison declarations irrelevant to grammar analysis: skip
			// their arguments.
			tok, err = p.skipArgs()
		case "%union":
			tok, err = p.sc.next()
			if err == nil {
				if tok.kind != tAction {
					return p.sc.errf(tok.line, "%%union requires a { ... } block")
				}
				tok, err = p.sc.next()
			}
		case "%expect", "%expect-rr":
			kw := tok.text
			tok, err = p.sc.next()
			if err == nil {
				if tok.kind != tNumber {
					return p.sc.errf(tok.line, "%s requires a number", kw)
				}
				n := 0
				for _, c := range tok.text {
					n = n*10 + int(c-'0')
				}
				if kw == "%expect" {
					p.b.ExpectSR(n)
				} else {
					p.b.ExpectRR(n)
				}
				tok, err = p.sc.next()
			}
		case "%debug", "%verbose", "%locations", "%pure-parser", "%defines":
			tok, err = p.sc.next()
		default:
			return p.sc.errf(tok.line, "directive %s not allowed in declarations", tok.text)
		}
		if err != nil {
			return err
		}
	}

	// Rules section.
	tok, err = p.sc.next()
	if err != nil {
		return err
	}
	for tok.kind != tEOF && tok.kind != tMark {
		if tok.kind != tIdent {
			return p.sc.errf(tok.line, "expected rule left-hand side, got %s", tokDesc(tok))
		}
		lhs := tok.text
		if p.decl[lhs] {
			return p.sc.errf(tok.line, "%q declared as a terminal but used as a rule left-hand side", lhs)
		}
		p.lhs[lhs] = true
		tok, err = p.sc.next()
		if err != nil {
			return err
		}
		if tok.kind != tColon {
			return p.sc.errf(tok.line, "expected ':' after %q, got %s", lhs, tokDesc(tok))
		}
		tok, err = p.rules(lhs)
		if err != nil {
			return err
		}
	}

	for _, u := range p.uses {
		if !p.decl[u.name] && !p.lhs[u.name] {
			return p.sc.errf(u.line, "symbol %q is neither a declared terminal nor defined by a rule", u.name)
		}
	}
	return nil
}

func (p *oracleReader) declTerminals(declare func(string)) (token, error) {
	n := 0
	last := ""
	for {
		tok, err := p.sc.next()
		if err != nil {
			return tok, err
		}
		switch tok.kind {
		case tIdent, tLit:
			declare(tok.text)
			p.decl[tok.text] = true
			last = tok.text
		case tTag:
			continue // %token <tag> NAME: type tags carry no grammar info
		case tString:
			// Bison string alias: %token PLUS "+".
			if last == "" {
				return tok, p.sc.errf(tok.line, "string alias %q has no preceding terminal", tok.text)
			}
			p.alias[tok.text] = last
			continue
		case tNumber:
			continue // %token NAME 258: explicit kind values are ignored
		default:
			if n == 0 {
				return tok, p.sc.errf(tok.line, "declaration lists at least one terminal")
			}
			return tok, nil
		}
		n++
	}
}

// skipArgs consumes declaration arguments (identifiers, tags, strings,
// numbers, literals, { } blocks) and returns the first structural token.
func (p *oracleReader) skipArgs() (token, error) {
	for {
		tok, err := p.sc.next()
		if err != nil {
			return tok, err
		}
		switch tok.kind {
		case tIdent, tTag, tString, tNumber, tLit, tAction:
			continue
		default:
			return tok, nil
		}
	}
}

func (p *oracleReader) declPrec(assoc Assoc) (token, error) {
	var names []string
	tok, err := p.declTerminals(func(name string) { names = append(names, name) })
	if err != nil {
		return tok, err
	}
	p.b.Precedence(assoc, names...)
	return tok, nil
}

// rules parses the alternatives of one rule after the ':'; it returns the
// first token following the rule.
func (p *oracleReader) rules(lhs string) (token, error) {
	var rhs []string
	precName := ""
	sawEmpty := false
	emit := func() {
		if precName != "" {
			p.b.RuleWithPrec(lhs, precName, rhs...)
		} else {
			p.b.Rule(lhs, rhs...)
		}
		rhs = nil
		precName = ""
		sawEmpty = false
	}
	for {
		tok, err := p.sc.next()
		if err != nil {
			return tok, err
		}
		switch tok.kind {
		case tIdent:
			if sawEmpty {
				return tok, p.sc.errf(tok.line, "%%empty alternative must be empty")
			}
			if tok.text == "error" {
				// yacc's reserved error-recovery terminal needs no
				// declaration.
				p.decl[tok.text] = true
				p.b.Terminal(tok.text)
			} else {
				p.uses = append(p.uses, oracleUse{tok.text, tok.line})
			}
			rhs = append(rhs, tok.text)
		case tLit:
			if sawEmpty {
				return tok, p.sc.errf(tok.line, "%%empty alternative must be empty")
			}
			p.decl[tok.text] = true
			p.b.Terminal(tok.text)
			rhs = append(rhs, tok.text)
		case tString:
			name, ok := p.alias[tok.text]
			if !ok {
				return tok, p.sc.errf(tok.line, "string token %q was never declared as an alias", tok.text)
			}
			rhs = append(rhs, name)
		case tAction:
			// Semantic actions carry no grammar structure.  (Mid-rule
			// actions technically introduce an anonymous ε-nonterminal in
			// bison; for look-ahead analysis the flattened rule is the
			// conventional approximation.)
			continue
		case tKeyword:
			switch tok.text {
			case "%prec":
				nt, err := p.sc.next()
				if err != nil {
					return nt, err
				}
				if nt.kind != tIdent && nt.kind != tLit {
					return nt, p.sc.errf(nt.line, "%%prec requires a terminal name")
				}
				p.uses = append(p.uses, oracleUse{nt.text, nt.line})
				precName = nt.text
			case "%empty":
				if len(rhs) > 0 {
					return tok, p.sc.errf(tok.line, "%%empty alternative must be empty")
				}
				sawEmpty = true
			default:
				return tok, p.sc.errf(tok.line, "directive %s not allowed inside a rule", tok.text)
			}
		case tPipe:
			emit()
		case tSemi:
			emit()
			return p.sc.next()
		case tEOF, tMark:
			emit()
			return tok, nil
		default:
			return tok, p.sc.errf(tok.line, "unexpected %s in rule", tokDesc(tok))
		case tColon:
			// "name : ..." starts the next rule; the previous rule had no
			// terminating ';'.  The just-consumed identifier is the new LHS.
			if len(rhs) == 0 {
				return tok, p.sc.errf(tok.line, "unexpected ':'")
			}
			newLhs := rhs[len(rhs)-1]
			rhs = rhs[:len(rhs)-1]
			emit()
			if p.decl[newLhs] {
				return tok, p.sc.errf(tok.line, "%q declared as a terminal but used as a rule left-hand side", newLhs)
			}
			p.lhs[newLhs] = true
			return p.rules(newLhs)
		}
	}
}

type oracleBuilder struct {
	name      string
	declared  map[string]bool       // explicitly declared terminals
	prec      map[string]Precedence // terminal precedence by name
	precLevel int
	rules     []oracleRule
	startName string
	expectSR  int
	expectRR  int
	synth     map[string]bool // EBNF helpers already defined
	errs      []error
}

type oracleRule struct {
	lhs      string
	rhs      []string
	precName string // %prec override, "" if none
}

// newOracleBuilder is the old NewBuilder.
func newOracleBuilder(name string) *oracleBuilder {
	return &oracleBuilder{
		name:     name,
		declared: make(map[string]bool),
		prec:     make(map[string]Precedence),
		expectSR: -1,
		expectRR: -1,
	}
}

// ExpectSR records a %expect declaration: the number of shift/reduce
// conflicts the grammar author accepts.
func (b *oracleBuilder) ExpectSR(n int) *oracleBuilder {
	b.expectSR = n
	return b
}

// ExpectRR records a %expect-rr declaration.
func (b *oracleBuilder) ExpectRR(n int) *oracleBuilder {
	b.expectRR = n
	return b
}

// Terminal declares the given names as terminals without precedence.
func (b *oracleBuilder) Terminal(names ...string) *oracleBuilder {
	for _, n := range names {
		b.declared[n] = true
	}
	return b
}

// Precedence declares a new precedence level (higher than all earlier
// levels) with the given associativity for the listed terminals, which
// are implicitly declared as terminals.
func (b *oracleBuilder) Precedence(assoc Assoc, names ...string) *oracleBuilder {
	b.precLevel++
	for _, n := range names {
		b.declared[n] = true
		if old, ok := b.prec[n]; ok {
			b.errs = append(b.errs, fmt.Errorf("terminal %q: precedence redeclared (was level %d)", n, old.Level))
			continue
		}
		b.prec[n] = Precedence{Level: b.precLevel, Assoc: assoc}
	}
	return b
}

// Rule adds the production lhs → rhs.  An empty rhs is an ε-production.
func (b *oracleBuilder) Rule(lhs string, rhs ...string) *oracleBuilder {
	b.rules = append(b.rules, oracleRule{lhs: lhs, rhs: rhs})
	return b
}

// RuleWithPrec adds a production with an explicit %prec override naming a
// terminal whose precedence the production assumes.
func (b *oracleBuilder) RuleWithPrec(lhs string, precName string, rhs ...string) *oracleBuilder {
	b.rules = append(b.rules, oracleRule{lhs: lhs, rhs: rhs, precName: precName})
	return b
}

// Start sets the start nonterminal.  If never called, the LHS of the
// first rule is the start symbol.
func (b *oracleBuilder) Start(name string) *oracleBuilder {
	b.startName = name
	return b
}

// Build numbers the symbols, augments the grammar with
// $accept → start $end, resolves production precedences and validates
// the result.
func (b *oracleBuilder) Build() (*Grammar, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.rules) == 0 {
		return nil, fmt.Errorf("grammar %q has no rules", b.name)
	}

	isNt := make(map[string]bool, len(b.rules))
	for _, r := range b.rules {
		isNt[r.lhs] = true
	}
	for n := range b.declared {
		if isNt[n] {
			return nil, fmt.Errorf("symbol %q declared as terminal but appears as a rule left-hand side", n)
		}
	}

	start := b.startName
	if start == "" {
		start = b.rules[0].lhs
	}
	if !isNt[start] {
		return nil, fmt.Errorf("start symbol %q has no rules", start)
	}

	// Collect terminal and nonterminal names in stable first-appearance
	// order: declared terminals first (declaration order is not tracked,
	// so sort for determinism), then any quoted-on-the-fly terminals in
	// rule order, then nonterminals in rule order.
	var termNames []string
	seenT := map[string]bool{"$end": true}
	for n := range b.declared {
		if !seenT[n] {
			seenT[n] = true
			termNames = append(termNames, n)
		}
	}
	sort.Strings(termNames)
	var ntNames []string
	seenN := map[string]bool{}
	addNt := func(n string) {
		if !seenN[n] {
			seenN[n] = true
			ntNames = append(ntNames, n)
		}
	}
	for _, r := range b.rules {
		addNt(r.lhs)
	}
	for _, r := range b.rules {
		for _, s := range r.rhs {
			if isNt[s] {
				continue
			}
			if !seenT[s] {
				seenT[s] = true
				termNames = append(termNames, s)
			}
		}
	}

	g := &Grammar{name: b.name, expectSR: b.expectSR, expectRR: b.expectRR}
	symOf := make(map[string]Sym, len(termNames)+len(ntNames)+2)
	add := func(name string, prec Precedence) {
		symOf[name] = Sym(len(g.syms))
		g.syms = append(g.syms, symbolInfo{name: name, prec: prec})
	}
	add("$end", Precedence{})
	for _, n := range termNames {
		add(n, b.prec[n])
	}
	g.numTerms = len(g.syms)
	add("$accept", Precedence{})
	for _, n := range ntNames {
		add(n, Precedence{})
	}
	g.start = symOf[start]

	// Production 0: $accept → start $end.
	g.prods = append(g.prods, Production{
		Index:   0,
		Lhs:     g.Accept(),
		Rhs:     []Sym{g.start, EOF},
		PrecSym: NoSym,
	})
	for _, r := range b.rules {
		p := Production{
			Index:   len(g.prods),
			Lhs:     symOf[r.lhs],
			Rhs:     make([]Sym, len(r.rhs)),
			PrecSym: NoSym,
		}
		for i, s := range r.rhs {
			p.Rhs[i] = symOf[s]
		}
		if r.precName != "" {
			ps, ok := symOf[r.precName]
			if !ok || !g.IsTerminal(ps) {
				return nil, fmt.Errorf("production %q: %%prec symbol %q is not a terminal", r.lhs, r.precName)
			}
			p.Prec = g.syms[ps].prec
			p.PrecSym = ps
			if !p.Prec.Defined() {
				return nil, fmt.Errorf("production %q: %%prec symbol %q has no declared precedence", r.lhs, r.precName)
			}
		} else {
			for i := len(p.Rhs) - 1; i >= 0; i-- {
				if g.IsTerminal(p.Rhs[i]) {
					p.Prec = g.syms[p.Rhs[i]].prec
					p.PrecSym = p.Rhs[i]
					break
				}
			}
		}
		g.prods = append(g.prods, p)
	}

	g.prodsOf = make([][]int, g.NumNonterminals())
	for i := range g.prods {
		nt := g.NtIndex(g.prods[i].Lhs)
		g.prodsOf[nt] = append(g.prodsOf[nt], i)
	}

	if err := oracleValidate(g); err != nil {
		return nil, err
	}
	return g, nil
}

// validate checks structural well-formedness beyond what Build enforces
// by construction: every nonterminal must have at least one production,
// and every production a known left-hand side (guaranteed by numbering,
// checked defensively).
func oracleValidate(g *Grammar) error {
	for i, ps := range g.prodsOf {
		if len(ps) == 0 {
			return fmt.Errorf("nonterminal %q has no productions", g.SymName(g.NtSym(i)))
		}
	}
	for i := range g.prods {
		p := &g.prods[i]
		if !g.IsNonterminal(p.Lhs) {
			return fmt.Errorf("production %d: left-hand side %q is not a nonterminal", i, g.SymName(p.Lhs))
		}
		for _, s := range p.Rhs {
			if int(s) < 0 || int(s) >= len(g.syms) {
				return fmt.Errorf("production %d: unknown symbol id %d", i, s)
			}
		}
	}
	return nil
}
