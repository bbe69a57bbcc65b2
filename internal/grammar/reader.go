package grammar

import (
	"fmt"
	"path"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse reads a grammar in a yacc/bison-like format:
//
//	/* C comments */, // line comments, # line comments
//	%token NAME 'lit' ...        declare terminals
//	%left / %right / %nonassoc   declare a precedence level (and terminals)
//	%start name                  set the start symbol (default: first LHS)
//	%%
//	lhs : alt1 sym sym
//	    | alt2 %prec TOKEN
//	    | %empty
//	    |                        /* empty alternative */
//	    ;                        /* the semicolon is optional */
//	%%                           /* everything after is ignored */
//
// Quoted literals such as '+' or '==' are terminals without declaration,
// as is the reserved error-recovery terminal "error".  Other bare
// identifiers must either be declared with %token/%left/... or appear as
// a left-hand side; anything else is an error, matching yacc's
// strictness.  filename names the grammar (see NameOf) and appears in
// error messages.
func Parse(filename, src string) (*Grammar, error) {
	p := reader{sc: scanner{file: filename, src: src, line: 1}, Builder: NewBuilder(NameOf(filename))}
	if err := p.run(); err != nil {
		return nil, err
	}
	return p.Build()
}

// NameOf is the grammar name Parse gives a grammar read from filename:
// its base name without a ".y" suffix.
func NameOf(filename string) string {
	return strings.TrimSuffix(path.Base(filename), ".y")
}

// MustParse is Parse for statically known-good grammar text; it panics on
// error.  The grammar corpus uses it.
func MustParse(filename, src string) *Grammar {
	g, err := Parse(filename, src)
	if err != nil {
		panic(err)
	}
	return g
}

type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tLit     // 'x' or '=='
	tString  // "alias" (bison string token)
	tColon   // :
	tPipe    // |
	tSemi    // ;
	tMark    // %%
	tKeyword // %token %left %right %nonassoc %start %prec %empty %precedence …
	tAction  // { … } semantic action (skipped as a unit)
	tTag     // <tag> type annotation (skipped)
	tNumber  // integer argument (e.g. of %expect)
)

type token struct {
	kind tokKind
	text string // identifier name, literal contents, or keyword (with %)
	line int
}

type scanner struct {
	file string
	src  string
	pos  int
	line int
}

func (s *scanner) errf(line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", s.file, line, fmt.Sprintf(format, args...))
}

// next skips blanks, comments and %{ … %} prologue blocks and returns
// the token after them.  Each of the scanner's loops consumes at least
// one byte per step, so none runs longer than the input; a case that
// consumes several bytes leaves pos on the last of them for the step.
func (s *scanner) next() (token, error) {
	for ; s.pos < len(s.src); s.pos++ {
		switch c := s.src[s.pos]; {
		case c == '\n':
			s.line++
		case c == ' ' || c == '\t' || c == '\r':
		case c == '#' || s.at("//"):
			s.toLineEnd()
		case s.at("/*"):
			if !s.skipTo("*/") {
				return token{}, s.errf(s.line, "unterminated /* comment")
			}
		case s.at("%{"):
			// %{ … %} prologue block (bison): skipped entirely.
			if !s.skipTo("%}") {
				return token{}, s.errf(s.line, "unterminated %%{ block")
			}
		default:
			return s.token()
		}
	}
	return token{kind: tEOF, line: s.line}, nil
}

func (s *scanner) at(prefix string) bool { return strings.HasPrefix(s.src[s.pos:], prefix) }

// toLineEnd moves onto the newline that ends the current line, counting
// it, or onto the last byte of input.
func (s *scanner) toLineEnd() {
	if i := strings.IndexByte(s.src[s.pos:], '\n'); i >= 0 {
		s.pos += i
		s.line++
	} else {
		s.pos = len(s.src) - 1
	}
}

// skipTo moves from the two-byte opener at pos onto the last byte of the
// first end after it, counting newlines; it reports false, moving
// nothing, if there is none.
func (s *scanner) skipTo(end string) bool {
	i := strings.Index(s.src[s.pos+2:], end)
	if i < 0 {
		return false
	}
	last := s.pos + 2 + i + len(end) - 1
	s.line += strings.Count(s.src[s.pos:last], "\n")
	s.pos = last
	return true
}

func (s *scanner) token() (token, error) {
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
		return s.literal()
	case c == '%':
		if s.at("%%") {
			s.pos += 2
			return token{kind: tMark, line: line}, nil
		}
		end := s.pos + 1
		for ; end < len(s.src) && (isIdentChar(rune(s.src[end])) || s.src[end] == '-'); end++ {
		}
		if end == s.pos+1 {
			return token{}, s.errf(line, "stray %%")
		}
		kw := s.src[s.pos:end]
		s.pos = end
		switch kw {
		case "%token", "%left", "%right", "%nonassoc", "%start", "%prec", "%empty", "%precedence",
			"%type", "%union", "%expect", "%define", "%debug", "%verbose", "%locations",
			"%pure-parser", "%defines", "%parse-param", "%lex-param", "%expect-rr":
			return token{kind: tKeyword, text: kw, line: line}, nil
		}
		return token{}, s.errf(line, "unknown directive %s", kw)
	case c == '"':
		end := s.pos + 1
		for ; end < len(s.src) && s.src[end] != '"' && s.src[end] != '\n'; end++ {
			if s.src[end] == '\\' {
				end++
			}
		}
		if end >= len(s.src) || s.src[end] != '"' {
			return token{}, s.errf(line, "unterminated string")
		}
		text := s.src[s.pos+1 : end]
		s.pos = end + 1
		return token{kind: tString, text: text, line: line}, nil
	case c == '<':
		end := s.pos + 1
		for ; end < len(s.src) && s.src[end] != '>' && s.src[end] != '\n'; end++ {
		}
		if end >= len(s.src) || s.src[end] != '>' {
			// Not a tag after all; report the '<' itself.
			return token{}, s.errf(line, "unexpected character '<'")
		}
		s.pos = end + 1
		return token{kind: tTag, line: line}, nil
	case c == '{':
		return s.action()
	case c >= '0' && c <= '9':
		end := s.pos
		for ; end < len(s.src) && s.src[end] >= '0' && s.src[end] <= '9'; end++ {
		}
		text := s.src[s.pos:end]
		s.pos = end
		return token{kind: tNumber, text: text, line: line}, nil
	default:
		// Identifiers are decoded as UTF-8; an invalid encoding (or any
		// other unexpected rune) is an error, never an empty token — an
		// empty token at an unadvanced position would loop forever.
		r, _ := utf8.DecodeRuneInString(s.src[s.pos:])
		if r == utf8.RuneError || !isIdentStart(r) {
			return token{}, s.errf(line, "unexpected character %q", c)
		}
		end := s.pos
		for n := 0; end < len(s.src); end += n {
			r, n = utf8.DecodeRuneInString(s.src[end:])
			if r == utf8.RuneError || !isIdentChar(r) {
				break
			}
		}
		text := s.src[s.pos:end]
		s.pos = end
		return token{kind: tIdent, text: text, line: line}, nil
	}
}

// literal scans a quoted terminal such as '+' or '=='.  Its text keeps
// the quotes, and is a slice of the source unless an escape needed
// decoding.
func (s *scanner) literal() (token, error) {
	line := s.line
	start := s.pos + 1
	var buf []byte // the decoded contents, once an escape is seen
	escaped := false
	for i := start; ; i++ {
		if i >= len(s.src) || s.src[i] == '\n' {
			return token{}, s.errf(line, "unterminated character literal")
		}
		switch c := s.src[i]; {
		case c == '\'':
			if i == start {
				return token{}, s.errf(line, "empty character literal")
			}
			s.pos = i + 1
			text := s.src[start-1 : s.pos]
			if escaped {
				text = "'" + string(buf) + "'"
			}
			return token{kind: tLit, text: text, line: line}, nil
		case c == '\\' && i+1 < len(s.src):
			if !escaped {
				buf, escaped = []byte(s.src[start:i]), true
			}
			i++
			switch e := s.src[i]; e {
			case 'n':
				buf = append(buf, '\n')
			case 't':
				buf = append(buf, '\t')
			case '\\', '\'':
				buf = append(buf, e)
			default:
				return token{}, s.errf(line, "unknown escape \\%c in literal", e)
			}
		case escaped:
			buf = append(buf, c)
		}
	}
}

// action skips a balanced-brace semantic action, respecting strings,
// character literals and comments inside.
func (s *scanner) action() (token, error) {
	line := s.line
	for depth := 0; s.pos < len(s.src); s.pos++ {
		switch s.src[s.pos] {
		case '{':
			depth++
		case '}':
			if depth--; depth == 0 {
				s.pos++
				return token{kind: tAction, line: line}, nil
			}
		case '\n':
			s.line++
		case '\'', '"':
			q := s.src[s.pos]
			for s.pos++; s.pos < len(s.src) && s.src[s.pos] != q; s.pos++ {
				if s.src[s.pos] == '\\' {
					s.pos++
				}
				if s.pos < len(s.src) && s.src[s.pos] == '\n' {
					s.line++
				}
			}
		case '/':
			if s.at("//") {
				s.toLineEnd()
			} else if s.at("/*") && !s.skipTo("*/") {
				s.pos = len(s.src)
			}
		}
	}
	return token{}, s.errf(line, "unterminated { action")
}

func isIdentStart(r rune) bool {
	return r == '_' || r == '.' || unicode.IsLetter(r)
}

func isIdentChar(r rune) bool {
	return isIdentStart(r) || unicode.IsDigit(r)
}

// reader reads a grammar's text straight into a Builder: names are
// interned as they are read and right-hand sides appended to its arena.
// Each of its loops reads a token per step.
type reader struct {
	sc scanner
	*Builder
	// alias maps bison string-token aliases ("+", "if") to the declared
	// terminal they stand for.
	alias map[string]Sym
}

func (p *reader) run() error {
	// Declarations section.
	for tok, err := p.sc.next(); ; tok, err = p.directive(tok) {
		if err != nil {
			return err
		}
		if tok.kind == tMark {
			break
		}
	}
	// Rules section.
	for tok, err := p.sc.next(); ; tok, err = p.readRule(tok) {
		if err != nil {
			return err
		}
		if tok.kind == tEOF || tok.kind == tMark {
			break
		}
	}
	// Bare identifiers must end up declared or defined as a left-hand
	// side.  Names are interned in order of first sight, which for such a
	// name is its first use, so the first one reported is the earliest.
	for _, e := range p.syms {
		if e.use != 0 && e.flags == 0 {
			return p.sc.errf(int(e.use), "symbol %q is neither a declared terminal nor defined by a rule", e.name)
		}
	}
	return nil
}

// directive reads the declaration tok starts and returns the token
// after it.
func (p *reader) directive(tok token) (token, error) {
	if tok.kind == tEOF {
		return tok, p.sc.errf(tok.line, "missing %%%% separator before rules")
	}
	if tok.kind != tKeyword {
		return tok, p.sc.errf(tok.line, "expected declaration, got %s", tokDesc(tok))
	}
	switch tok.text {
	case "%token":
		return p.terminals(false, AssocNone)
	case "%left":
		return p.terminals(true, AssocLeft)
	case "%right":
		return p.terminals(true, AssocRight)
	case "%nonassoc":
		return p.terminals(true, AssocNonassoc)
	case "%precedence":
		return p.terminals(true, AssocNone)
	case "%start":
		arg, err := p.arg("%start requires a nonterminal name", tIdent)
		if err != nil {
			return arg, err
		}
		p.startName = arg.text
	case "%type", "%define", "%parse-param", "%lex-param":
		// Bison declarations irrelevant to grammar analysis: skip their
		// arguments, up to the first structural token.
		for tok, err := p.sc.next(); ; tok, err = p.sc.next() {
			switch {
			case err != nil:
				return tok, err
			case tok.kind != tIdent && tok.kind != tTag && tok.kind != tString &&
				tok.kind != tNumber && tok.kind != tLit && tok.kind != tAction:
				return tok, nil
			}
		}
	case "%union":
		if arg, err := p.arg("%union requires a { ... } block", tAction); err != nil {
			return arg, err
		}
	case "%expect", "%expect-rr":
		arg, err := p.arg(tok.text+" requires a number", tNumber)
		if err != nil {
			return arg, err
		}
		n := 0
		for _, c := range arg.text {
			n = n*10 + int(c-'0')
		}
		if tok.text == "%expect" {
			p.expectSR = n
		} else {
			p.expectRR = n
		}
	case "%debug", "%verbose", "%locations", "%pure-parser", "%defines":
	default:
		return tok, p.sc.errf(tok.line, "directive %s not allowed in declarations", tok.text)
	}
	return p.sc.next()
}

// arg reads a directive's argument, which must be of one of the kinds
// k; what is the error if it is not.
func (p *reader) arg(what string, k ...tokKind) (token, error) {
	tok, err := p.sc.next()
	if err == nil && !slices.Contains(k, tok.kind) {
		err = p.sc.errf(tok.line, "%s", what)
	}
	return tok, err
}

// terminals reads the names a %token (prec false) or precedence
// declaration declares and returns the token after them.
func (p *reader) terminals(prec bool, assoc Assoc) (token, error) {
	if prec {
		p.precLevel++
	}
	last := NoSym
	for tok, err := p.sc.next(); ; tok, err = p.sc.next() {
		if err != nil {
			return tok, err
		}
		switch tok.kind {
		case tIdent, tLit:
			last = p.intern(tok.text)
			if prec {
				p.setPrec(last, assoc)
			} else {
				p.syms[last].flags |= declared
			}
		case tString:
			// Bison string alias: %token PLUS "+".
			if last == NoSym {
				return tok, p.sc.errf(tok.line, "string alias %q has no preceding terminal", tok.text)
			}
			if p.alias == nil {
				p.alias = map[string]Sym{}
			}
			p.alias[tok.text] = last
		case tTag, tNumber:
			// %token <tag> NAME 258: type tags and explicit kind values
			// carry no grammar information.
		default:
			if last == NoSym {
				return tok, p.sc.errf(tok.line, "declaration lists at least one terminal")
			}
			return tok, nil
		}
	}
}

// readRule reads the rule whose left-hand side is tok, and the rules
// that follow it without a closing ';', and returns the token after
// them.
func (p *reader) readRule(tok token) (token, error) {
	if tok.kind != tIdent {
		return tok, p.sc.errf(tok.line, "expected rule left-hand side, got %s", tokDesc(tok))
	}
	lhs := p.intern(tok.text)
	if err := p.define(lhs, tok.line); err != nil {
		return tok, err
	}
	tok, err := p.sc.next()
	if err != nil {
		return tok, err
	}
	if tok.kind != tColon {
		return tok, p.sc.errf(tok.line, "expected ':' after %q, got %s", p.syms[lhs].name, tokDesc(tok))
	}
	// The alternative being read is lhs → arena[lo:].
	lo, prec, sawEmpty := len(p.arena), NoSym, false
	emit := func() {
		p.rules = append(p.rules, rule{lhs: lhs, prec: prec, end: int32(len(p.arena))})
		lo, prec, sawEmpty = len(p.arena), NoSym, false
	}
	for tok, err := p.sc.next(); ; tok, err = p.sc.next() {
		if err != nil {
			return tok, err
		}
		switch tok.kind {
		case tIdent, tLit:
			if sawEmpty {
				return tok, p.sc.errf(tok.line, "%%empty alternative must be empty")
			}
			s := p.intern(tok.text)
			if tok.kind == tLit || tok.text == "error" {
				// yacc's reserved error-recovery terminal needs no
				// declaration.
				p.syms[s].flags |= declared
			} else {
				p.used(s, tok.line)
			}
			p.arena = append(p.arena, s)
		case tString:
			s, ok := p.alias[tok.text]
			if !ok {
				return tok, p.sc.errf(tok.line, "string token %q was never declared as an alias", tok.text)
			}
			p.arena = append(p.arena, s)
		case tAction:
			// Semantic actions carry no grammar structure.  (Mid-rule
			// actions technically introduce an anonymous ε-nonterminal in
			// bison; for look-ahead analysis the flattened rule is the
			// conventional approximation.)
		case tKeyword:
			switch tok.text {
			case "%prec":
				arg, err := p.arg("%prec requires a terminal name", tIdent, tLit)
				if err != nil {
					return arg, err
				}
				prec = p.intern(arg.text)
				p.used(prec, arg.line)
			case "%empty":
				if len(p.arena) > lo {
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
		case tColon:
			// "name : ..." starts the next rule; the previous rule had no
			// terminating ';'.  The symbol just read is the new LHS.
			if len(p.arena) == lo {
				return tok, p.sc.errf(tok.line, "unexpected ':'")
			}
			next := p.arena[len(p.arena)-1]
			p.arena = p.arena[:len(p.arena)-1]
			emit()
			if err := p.define(next, tok.line); err != nil {
				return tok, err
			}
			lhs = next
		default:
			return tok, p.sc.errf(tok.line, "unexpected %s in rule", tokDesc(tok))
		}
	}
}

// define makes s the left-hand side of a rule.
func (p *reader) define(s Sym, line int) error {
	if p.syms[s].flags&declared != 0 {
		return p.sc.errf(line, "%q declared as a terminal but used as a rule left-hand side", p.syms[s].name)
	}
	p.syms[s].flags |= defined
	return nil
}

// used records a right-hand-side or %prec use of s on line.
func (p *reader) used(s Sym, line int) {
	if p.syms[s].use == 0 {
		p.syms[s].use = int32(line)
	}
}

func tokDesc(t token) string {
	switch t.kind {
	case tEOF:
		return "end of file"
	case tIdent:
		return fmt.Sprintf("identifier %q", t.text)
	case tLit:
		return fmt.Sprintf("literal %s", t.text)
	case tColon:
		return "':'"
	case tPipe:
		return "'|'"
	case tSemi:
		return "';'"
	case tMark:
		return "'%%'"
	case tString:
		return fmt.Sprintf("string %q", t.text)
	case tAction:
		return "{ action }"
	case tTag:
		return "<tag>"
	case tNumber:
		return fmt.Sprintf("number %s", t.text)
	default:
		return t.text
	}
}
