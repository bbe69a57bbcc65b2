package grammar

import (
	"reflect"
	"testing"
)

// FuzzParse drives the grammar reader with arbitrary bytes: it must
// return a grammar or an error, never panic, and the same grammar or
// error text as the old reader (readoracle_test.go).  (Seed corpus below runs
// on every `go test`; `go test -fuzz=FuzzParse` explores further.)
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"%%",
		"%%\ns : 'a' ;\n",
		"%token A B\n%left '+'\n%%\ns : A '+' B | %empty ;\n",
		"%union { int x; }\n%token <x> N\n%expect 1\n%%\ns : N { act(); } ;\n",
		"%token PLUS \"+\"\n%%\ns : \"+\" ;\n",
		"%%\ns : error ';' ;\n",
		"%start s\n%%\ns : s s | ;\n",
		"%{ prologue %}\n%%\ns : 'a' ;\n%%\ntrailer",
		"%prec",
		"%%\n: ;",
		"%token\n%%",
		"'",
		"/*",
		"%%\ns : '\\q' ;",
		"%%\ns : a 'x' a : 'y' b b : %empty",
		"%left '+'\n%%\ns : s '+' s | 'n' %prec '+' ;",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := Parse("fuzz.y", src)
		og, oerr := oracleParse("fuzz.y", src)
		if (err == nil) != (oerr == nil) || err != nil && err.Error() != oerr.Error() {
			t.Fatalf("error %v, old reader %v", err, oerr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(g, og) {
			t.Fatalf("grammar differs from the old reader's:\n%s\nwant\n%s", g, og)
		}
		// Anything that parses must also survive the downstream
		// analyses and serialise/re-parse.
		an := Analyze(g)
		_ = an.Follow(g.Start())
		if _, err := Parse("fuzz2.y", g.WriteYacc()); err != nil {
			t.Fatalf("WriteYacc output does not re-parse: %v", err)
		}
	})
}
