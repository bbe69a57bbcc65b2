package export

import (
	"slices"
	"strconv"
	"unicode/utf8"
)

// This file is the report's one encoding: a reflection-free writer
// whose output is byte-identical to json.MarshalIndent(v, "", "  ")
// over the types in export.go.  It mirrors their JSON tags by hand, so
// a field added there must be added here too; encoding/json stays the
// oracle the tests compare against (encode_test.go).

// AppendJSON appends r as indented JSON, laid out as it is when nested
// depth levels deep in a document indented with two spaces per level:
// depth 0 gives exactly json.MarshalIndent(r, "", "  "), and depth 1
// gives the bytes of a field value one object down.  A nil r appends
// null.
func (r *Report) AppendJSON(dst []byte, depth int) []byte {
	if r == nil {
		return append(dst, "null"...)
	}
	d := depth + 1
	dst = append(dst, '{')
	dst = key(dst, d, "grammar", true)
	dst = r.Grammar.appendJSON(dst, d)
	dst = key(dst, d, "method", false)
	dst = AppendString(dst, r.Method)
	dst = key(dst, d, "states", false)
	dst = appendArray(dst, r.States, d, (*StateInfo).appendJSON)
	dst = key(dst, d, "conflicts", false)
	dst = appendArray(dst, r.Conflicts, d, (*ConflictInfo).appendJSON)
	if r.Relations != nil {
		dst = key(dst, d, "relations", false)
		dst = r.Relations.appendJSON(dst, d)
	}
	dst = key(dst, d, "adequate", false)
	dst = strconv.AppendBool(dst, r.Adequate)
	return closeObject(dst, depth)
}

func (g *GrammarInfo) appendJSON(dst []byte, depth int) []byte {
	d := depth + 1
	dst = append(dst, '{')
	dst = key(dst, d, "name", true)
	dst = AppendString(dst, g.Name)
	dst = key(dst, d, "terminals", false)
	dst = appendStrings(dst, g.Terminals, d)
	dst = key(dst, d, "nonterminals", false)
	dst = appendStrings(dst, g.Nonterminals, d)
	dst = key(dst, d, "productions", false)
	dst = appendStrings(dst, g.Productions, d)
	dst = key(dst, d, "start", false)
	dst = AppendString(dst, g.Start)
	return closeObject(dst, depth)
}

func (s *StateInfo) appendJSON(dst []byte, depth int) []byte {
	d := depth + 1
	dst = append(dst, '{')
	dst = key(dst, d, "index", true)
	dst = strconv.AppendInt(dst, int64(s.Index), 10)
	dst = key(dst, d, "kernel", false)
	dst = appendStrings(dst, s.Kernel, d)
	if len(s.Transitions) > 0 {
		dst = key(dst, d, "transitions", false)
		dst = appendTransitions(dst, s.Transitions, d)
	}
	if len(s.Reductions) > 0 {
		dst = key(dst, d, "reductions", false)
		dst = appendArray(dst, s.Reductions, d, (*ReductionInfo).appendJSON)
	}
	return closeObject(dst, depth)
}

// appendTransitions writes a non-empty map with its keys in sorted
// order, as encoding/json does for string-keyed maps.
func appendTransitions(dst []byte, m map[string]int, depth int) []byte {
	// Every state of the corpus has fewer transitions than this (csub's
	// widest has 69), so the key scratch stays on the stack.
	var scratch [128]string
	keys := scratch[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = indent(dst, depth+1)
		dst = AppendString(dst, k)
		dst = append(dst, ": "...)
		dst = strconv.AppendInt(dst, int64(m[k]), 10)
	}
	return closeObject(dst, depth)
}

func (ri *ReductionInfo) appendJSON(dst []byte, depth int) []byte {
	d := depth + 1
	dst = append(dst, '{')
	dst = key(dst, d, "production", true)
	dst = AppendString(dst, ri.Production)
	dst = key(dst, d, "lookahead", false)
	dst = appendStrings(dst, ri.Lookahead, d)
	return closeObject(dst, depth)
}

func (c *ConflictInfo) appendJSON(dst []byte, depth int) []byte {
	d := depth + 1
	dst = append(dst, '{')
	dst = key(dst, d, "state", true)
	dst = strconv.AppendInt(dst, int64(c.State), 10)
	dst = key(dst, d, "terminal", false)
	dst = AppendString(dst, c.Terminal)
	dst = key(dst, d, "kind", false)
	dst = AppendString(dst, c.Kind)
	dst = key(dst, d, "productions", false)
	dst = appendStrings(dst, c.Productions, d)
	dst = key(dst, d, "resolution", false)
	dst = AppendString(dst, c.Resolution)
	dst = key(dst, d, "unresolved", false)
	dst = strconv.AppendBool(dst, c.Unresolved)
	return closeObject(dst, depth)
}

func (ri *RelationInfo) appendJSON(dst []byte, depth int) []byte {
	d := depth + 1
	dst = append(dst, '{')
	dst = key(dst, d, "ntTransitions", true)
	dst = strconv.AppendInt(dst, int64(ri.NtTransitions), 10)
	dst = key(dst, d, "readsEdges", false)
	dst = strconv.AppendInt(dst, int64(ri.ReadsEdges), 10)
	dst = key(dst, d, "includesEdges", false)
	dst = strconv.AppendInt(dst, int64(ri.IncludesEdges), 10)
	dst = key(dst, d, "lookbackEdges", false)
	dst = strconv.AppendInt(dst, int64(ri.LookbackEdges), 10)
	dst = key(dst, d, "readsCyclic", false)
	dst = strconv.AppendBool(dst, ri.ReadsCyclic)
	dst = key(dst, d, "includesCyclic", false)
	dst = strconv.AppendBool(dst, ri.IncludesCyclic)
	dst = key(dst, d, "notLRk", false)
	dst = strconv.AppendBool(dst, ri.NotLRk)
	return closeObject(dst, depth)
}

// appendArray writes a slice whose elements are written by elem: null
// when nil, [] when empty, one indented element per line otherwise.
func appendArray[T any](dst []byte, xs []T, depth int, elem func(*T, []byte, int) []byte) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	if len(xs) == 0 {
		return append(dst, "[]"...)
	}
	dst = append(dst, '[')
	for i := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = indent(dst, depth+1)
		dst = elem(&xs[i], dst, depth+1)
	}
	dst = indent(dst, depth)
	return append(dst, ']')
}

func appendStrings(dst []byte, ss []string, depth int) []byte {
	return appendArray(dst, ss, depth, func(s *string, dst []byte, _ int) []byte {
		return AppendString(dst, *s)
	})
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
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
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
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
