package export

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
	"repro/internal/slr"
)

// analysis is one analyzed grammar, the input of both Build and
// AppendAnalysis.
type analysis struct {
	a      *lr0.Automaton
	sets   [][]bitset.Set
	t      *lalrtable.Tables
	dp     *core.Result
	method string
}

// analyses analyzes g with the DP method (relations present) and with
// SLR (relations absent).
func analyses(g *grammar.Grammar) []analysis {
	a := lr0.New(g, nil)
	dp := core.Compute(a)
	sets := slr.Compute(a)
	return []analysis{
		{a, dp.Sets(), lalrtable.Build(a, dp.Sets()), dp, "deremer-pennello"},
		{a, sets, lalrtable.Build(a, sets), nil, "slr"},
	}
}

// checkAnalysis compares AppendAnalysis with its oracle,
// json.MarshalIndent of Build's report, at depth 0 and nested one
// object down.
func checkAnalysis(t *testing.T, label string, x analysis) {
	t.Helper()
	r := Build(x.a, x.sets, x.t, x.dp, x.method)
	want, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendAnalysis(nil, 0, x.a, x.sets, x.t, x.dp, x.method); !bytes.Equal(got, want) {
		i := firstDiff(got, want)
		t.Fatalf("%s/%s: AppendAnalysis differs from json.MarshalIndent(Build) at byte %d\n got: %.200q\nwant: %.200q",
			label, x.method, i, got[i:], want[i:])
	}
	nested := struct {
		R *Report `json:"r"`
	}{r}
	want, err = json.MarshalIndent(nested, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := AppendAnalysis([]byte("{\n  \"r\": "), 1, x.a, x.sets, x.t, x.dp, x.method)
	if got = append(got, "\n}"...); !bytes.Equal(got, want) {
		t.Fatalf("%s/%s: nested AppendAnalysis differs from json.MarshalIndent(Build) at byte %d", label, x.method, firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestAppendAnalysisCorpus: the writer matches its oracle on every
// corpus grammar and on mutation-fuzzer variants of each, seeds 1–6.
func TestAppendAnalysisCorpus(t *testing.T) {
	seeds, n := int64(6), 6
	if testing.Short() {
		seeds, n = 1, 2
	}
	for _, e := range grammars.All() {
		for _, x := range analyses(grammars.MustLoad(e.Name)) {
			checkAnalysis(t, e.Name, x)
		}
		for seed := int64(1); seed <= seeds; seed++ {
			for i, src := range grammars.Mutations(e.Src, seed, n) {
				mg, err := grammar.Parse(e.Name+"-mutant.y", src)
				if err != nil {
					t.Fatalf("%s seed %d mutant %d: %v", e.Name, seed, i, err)
				}
				for _, x := range analyses(mg) {
					checkAnalysis(t, e.Name+" mutant", x)
				}
			}
		}
	}
}

// hostile is every string class encoding/json escapes specially.
var hostile = []string{
	"", `"quoted"`, `back\slash`, "<script>&amp;</script>",
	"\b\f\n\r\t", "\x00\x01\x1f\x7f", "bad \xff\xfe utf-8 \xc3", "trunc \xe2\x80",
	"line\xe2\x80\xa8para\xe2\x80\xa9", "é ü 中文 😀", "→ . $end",
}

// hostileGrammar names a small grammar, its terminals and its
// nonterminals after s and variants of it: a conflicted, ε-carrying
// grammar whose names need every escape, share prefixes and sort
// differently by name than by symbol number.
func hostileGrammar(s string) (*grammar.Grammar, error) {
	t1, t2, t3 := s, s+"<", "a"+s
	e, l := s+"E", "\x00"+s
	return grammar.NewBuilder(s).
		Terminal(t1, t2, t3).
		Rule(e, e, t1, e).
		Rule(e, t2, l).
		Rule(e, t3).
		Rule(l).
		Rule(l, l, t3).
		Build()
}

// TestAppendAnalysisSharedNames: nonterminals may reuse the names of
// the augmenting symbols $end and $accept.  A state with transitions
// on both symbols named $end keeps one map key in Build's report, the
// later symbol's, and the writer must do the same.
func TestAppendAnalysisSharedNames(t *testing.T) {
	g, err := grammar.NewBuilder("shared").
		Rule("s", "s", "$end", "$accept").
		Rule("s", "a").
		Rule("$end", "b").
		Rule("$accept", "c").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.SymByName("$end") != grammar.EOF {
		t.Fatal("the terminal $end no longer comes first by name")
	}
	for _, x := range analyses(g) {
		checkAnalysis(t, "shared names", x)
	}
}

// TestAppendJSONHostileStrings: the writer matches its oracle on one
// grammar whose terminals are all the hostile strings at once, so that
// names of every escape class are ranked against each other, and
// AppendString matches encoding/json on each of them.
func TestAppendJSONHostileStrings(t *testing.T) {
	b := grammar.NewBuilder("hostile").Terminal(hostile...)
	for _, s := range hostile {
		n := s + "\x00N"
		b.Rule("\x00S", n).Rule(n, s, n).Rule(n)
		if got, want := AppendString(nil, s), must(json.Marshal(s)); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range analyses(g) {
		checkAnalysis(t, "hostile", x)
	}
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// FuzzAppendJSON holds the writer to its oracle on grammars whose
// every name is the fuzzed string or a variant of it, and AppendString
// to encoding/json's own string encoding.
func FuzzAppendJSON(f *testing.F) {
	for _, s := range hostile {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(s); err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); !bytes.Equal(append(got, '\n'), want.Bytes()) {
			t.Fatalf("AppendString(%q) = %s, want %s", s, got, want.Bytes())
		}
		g, err := hostileGrammar(s)
		if err != nil {
			t.Skip(err)
		}
		for _, x := range analyses(g) {
			checkAnalysis(t, "fuzz", x)
		}
	})
}

// BenchmarkAppendAnalysis times the writer against Build plus
// encoding/json on the largest corpus machine.
func BenchmarkAppendAnalysis(b *testing.B) {
	x := analyses(grammars.MustLoad("csub"))[0]
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = AppendAnalysis(buf[:0], 0, x.a, x.sets, x.t, x.dp, x.method)
		}
	})
	b.Run("build-marshal-indent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.MarshalIndent(Build(x.a, x.sets, x.t, x.dp, x.method), "", "  "); err != nil {
				b.Fatal(err)
			}
		}
	})
}
