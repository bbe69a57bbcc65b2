package export

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
	"repro/internal/slr"
)

// checkEncoding compares AppendJSON with its encoding/json oracle, at
// depth 0 and nested one object down.
func checkEncoding(t *testing.T, label string, r *Report) {
	t.Helper()
	want, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.AppendJSON(nil, 0); !bytes.Equal(got, want) {
		i := firstDiff(got, want)
		t.Fatalf("%s: AppendJSON differs from json.MarshalIndent at byte %d\n got: %.200q\nwant: %.200q",
			label, i, got[i:], want[i:])
	}
	nested := struct {
		R *Report `json:"r"`
	}{r}
	want, err = json.MarshalIndent(nested, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := append(r.AppendJSON([]byte("{\n  \"r\": "), 1), "\n}"...)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: nested AppendJSON differs from json.MarshalIndent at byte %d", label, firstDiff(got, want))
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

// buildReports analyzes g with the DP method (relations present) and
// with SLR (relations absent).
func buildReports(g *grammar.Grammar) []*Report {
	a := lr0.New(g, nil)
	dp := core.Compute(a)
	sets := slr.Compute(a)
	return []*Report{
		Build(a, dp.Sets(), lalrtable.Build(a, dp.Sets()), dp, "deremer-pennello"),
		Build(a, sets, lalrtable.Build(a, sets), nil, "slr"),
	}
}

// TestAppendJSONCorpus: the encoder matches encoding/json on every
// corpus grammar and on mutation-fuzzer variants of each.
func TestAppendJSONCorpus(t *testing.T) {
	for _, e := range grammars.All() {
		g := grammars.MustLoad(e.Name)
		for _, r := range buildReports(g) {
			checkEncoding(t, e.Name+"/"+r.Method, r)
		}
		n := 3
		if testing.Short() {
			n = 1
		}
		for i, src := range grammars.Mutations(e.Src, 1, n) {
			mg, err := grammar.Parse(e.Name+"-mutant.y", src)
			if err != nil {
				t.Fatalf("%s mutant %d: %v", e.Name, i, err)
			}
			for _, r := range buildReports(mg) {
				checkEncoding(t, e.Name+" mutant/"+r.Method, r)
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

// hostileReport spreads s over every string field and exercises the
// shape edges: nil against empty slices, nil Relations, empty and
// multi-key Transitions.
func hostileReport(s string, i int) *Report {
	r := &Report{
		Grammar: GrammarInfo{Name: s, Terminals: []string{s, s + "x"}, Nonterminals: []string{}, Start: s},
		Method:  s,
		States: []StateInfo{
			{Index: i, Kernel: []string{s}, Transitions: map[string]int{s: 1, s + "<": 2, "a" + s: -3}},
			{Index: 1, Transitions: map[string]int{}, Reductions: []ReductionInfo{{Production: s}, {Production: s, Lookahead: []string{}}, {Lookahead: []string{s}}}},
			{Kernel: []string{}, Reductions: []ReductionInfo{}},
		},
		Conflicts: []ConflictInfo{{State: -i, Terminal: s, Kind: s, Productions: []string{s}, Resolution: s, Unresolved: true}, {}},
		Adequate:  i%2 == 0,
	}
	if i%3 != 0 {
		r.Relations = &RelationInfo{NtTransitions: i, ReadsEdges: -i, IncludesEdges: 1 << 40, ReadsCyclic: true, NotLRk: i%2 == 1}
	}
	return r
}

func TestAppendJSONHostileStrings(t *testing.T) {
	for i, s := range hostile {
		checkEncoding(t, "hostile", hostileReport(s, i))
	}
	checkEncoding(t, "zero report", &Report{})
	checkEncoding(t, "empty slices", &Report{States: []StateInfo{}, Conflicts: []ConflictInfo{}})
	if got := (*Report)(nil).AppendJSON(nil, 0); string(got) != "null" {
		t.Errorf("nil report = %q, want null", got)
	}
}

func FuzzAppendJSON(f *testing.F) {
	for i, s := range hostile {
		f.Add(s, i)
	}
	f.Fuzz(func(t *testing.T, s string, i int) {
		checkEncoding(t, "fuzz", hostileReport(s, i))
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); !bytes.Equal(append(got, '\n'), want.Bytes()) {
			t.Fatalf("AppendString(%q) = %s, want %s", s, got, want.Bytes())
		}
	})
}

// BenchmarkAppendJSON times the encoder against encoding/json on the
// largest corpus machine.
func BenchmarkAppendJSON(b *testing.B) {
	r := buildReports(grammars.MustLoad("csub"))[0]
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = r.AppendJSON(buf[:0], 0)
		}
	})
	b.Run("marshal-indent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.MarshalIndent(r, "", "  "); err != nil {
				b.Fatal(err)
			}
		}
	})
}
