package grammar

import (
	"fmt"
	"path"
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
	p := &reader{
		sc:    scanner{file: filename, src: src, line: 1},
		b:     NewBuilder(NameOf(filename)),
		decl:  map[string]bool{},
		lhs:   map[string]bool{},
		alias: map[string]string{},
	}
	if err := p.run(); err != nil {
		return nil, err
	}
	return p.b.Build()
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

func (s *scanner) next() (token, error) {
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

func (s *scanner) skipLine() {
	for s.pos < len(s.src) && s.src[s.pos] != '\n' {
		s.pos++
	}
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

func isIdentStart(r rune) bool {
	return r == '_' || r == '.' || unicode.IsLetter(r)
}

func isIdentChar(r rune) bool {
	return isIdentStart(r) || unicode.IsDigit(r)
}

type reader struct {
	sc   scanner
	b    *Builder
	decl map[string]bool // names declared as terminals (or literal-quoted)
	lhs  map[string]bool
	// alias maps bison string-token aliases ("+", "if") to the declared
	// terminal they stand for.
	alias map[string]string
	// deferred RHS symbol checks: bare identifiers must end up declared
	// or defined as an LHS.
	uses []symUse
}

type symUse struct {
	name string
	line int
}

func (p *reader) run() error {
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

func (p *reader) declTerminals(declare func(string)) (token, error) {
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
func (p *reader) skipArgs() (token, error) {
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

func (p *reader) declPrec(assoc Assoc) (token, error) {
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
func (p *reader) rules(lhs string) (token, error) {
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
				p.uses = append(p.uses, symUse{tok.text, tok.line})
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
				p.uses = append(p.uses, symUse{nt.text, nt.line})
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
