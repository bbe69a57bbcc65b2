package repro

// One benchmark family per table/figure of EXPERIMENTS.md.  The pretty
// tables come from cmd/lalrbench; these benches expose the same
// quantities through testing.B so `go test -bench` regenerates the raw
// series with allocation counts.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ambig"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
	"repro/internal/lr1"
	"repro/internal/packed"
	"repro/internal/prop"
	"repro/internal/runtime"
	"repro/internal/slr"
)

// corpusBench runs fn once per iteration for every corpus grammar as a
// sub-benchmark.
func corpusBench(b *testing.B, fn func(b *testing.B, a *lr0.Automaton)) {
	for _, e := range grammars.All() {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			g := grammars.MustLoad(e.Name)
			a := lr0.New(g, nil)
			b.ReportAllocs()
			b.ResetTimer()
			fn(b, a)
		})
	}
}

// BenchmarkTableI_LR0Construction measures the shared substrate every
// method pays for: building the canonical LR(0) collection.
func BenchmarkTableI_LR0Construction(b *testing.B) {
	for _, e := range grammars.All() {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			g := grammars.MustLoad(e.Name)
			an := grammar.Analyze(g)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := lr0.New(g, an)
				b.ReportMetric(float64(len(a.States)), "states")
			}
		})
	}
}

// BenchmarkTableII_Relations measures building the DeRemer–Pennello
// relations plus solving them — the full look-ahead pass.
func BenchmarkTableII_Relations(b *testing.B) {
	corpusBench(b, func(b *testing.B, a *lr0.Automaton) {
		for i := 0; i < b.N; i++ {
			r := core.Compute(a)
			st := r.Stats()
			b.ReportMetric(float64(st.IncludesEdges), "includes-edges")
		}
	})
}

// BenchmarkTableIII_* compare the cost of the four look-ahead methods
// on the corpus (Table III of EXPERIMENTS.md).

func BenchmarkTableIII_SLR(b *testing.B) {
	corpusBench(b, func(b *testing.B, a *lr0.Automaton) {
		g := a.G
		for i := 0; i < b.N; i++ {
			// FOLLOW computation is SLR's real cost; force it fresh.
			aa := *a
			aa.An = grammar.Analyze(g)
			_ = slr.Compute(&aa)
		}
	})
}

func BenchmarkTableIII_DeRemerPennello(b *testing.B) {
	corpusBench(b, func(b *testing.B, a *lr0.Automaton) {
		for i := 0; i < b.N; i++ {
			_ = core.Compute(a)
		}
	})
}

func BenchmarkTableIII_Propagation(b *testing.B) {
	corpusBench(b, func(b *testing.B, a *lr0.Automaton) {
		for i := 0; i < b.N; i++ {
			_, _ = prop.Compute(a)
		}
	})
}

func BenchmarkTableIII_CanonicalMerge(b *testing.B) {
	corpusBench(b, func(b *testing.B, a *lr0.Automaton) {
		for i := 0; i < b.N; i++ {
			_ = lr1.New(a.G, a.An).MergeLALR(a)
		}
	})
}

// BenchmarkTableIV_Conflicts measures parse-table construction with
// precedence resolution, reporting unresolved conflicts.
func BenchmarkTableIV_Conflicts(b *testing.B) {
	corpusBench(b, func(b *testing.B, a *lr0.Automaton) {
		sets := core.Compute(a).Sets()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := lalrtable.Build(a, sets)
			sr, rr := t.Unresolved()
			b.ReportMetric(float64(sr+rr), "conflicts")
		}
	})
}

// BenchmarkFigScaling_* sweep the expr-levels(n) family (Fig. scaling).

func scalingBench(b *testing.B, fn func(a *lr0.Automaton)) {
	for _, n := range []int{5, 10, 20, 40} {
		n := n
		b.Run(fmt.Sprintf("levels-%d", n), func(b *testing.B) {
			g := grammars.ExprLevels(n)
			a := lr0.New(g, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn(a)
			}
		})
	}
}

func BenchmarkFigScaling_DeRemerPennello(b *testing.B) {
	scalingBench(b, func(a *lr0.Automaton) { _ = core.Compute(a) })
}

func BenchmarkFigScaling_Propagation(b *testing.B) {
	scalingBench(b, func(a *lr0.Automaton) { _, _ = prop.Compute(a) })
}

func BenchmarkFigScaling_CanonicalMerge(b *testing.B) {
	scalingBench(b, func(a *lr0.Automaton) { _ = lr1.New(a.G, a.An).MergeLALR(a) })
}

// BenchmarkFigDigraph_* compare the Digraph SCC traversal with naive
// chaotic iteration on the adversarially ordered unit chain
// (Fig. digraph): naive is quadratic there, Digraph linear.

func digraphBench(b *testing.B, fn func(a *lr0.Automaton)) {
	for _, n := range []int{100, 400, 1600} {
		n := n
		b.Run(fmt.Sprintf("chain-%d", n), func(b *testing.B) {
			g := grammars.UnitChainReversed(n)
			a := lr0.New(g, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn(a)
			}
		})
	}
}

func BenchmarkFigDigraph_Digraph(b *testing.B) {
	digraphBench(b, func(a *lr0.Automaton) { _ = core.Compute(a) })
}

func BenchmarkFigDigraph_Naive(b *testing.B) {
	digraphBench(b, func(a *lr0.Automaton) { _ = core.ComputeNaive(a) })
}

// BenchmarkParserThroughput measures the runtime engine (not part of
// the paper's evaluation, but the artifact a user ultimately runs):
// tokens parsed per op on generated sentences of the expression corpus
// grammar.
func BenchmarkParserThroughput(b *testing.B) {
	g := grammars.MustLoad("expr")
	a := lr0.New(g, nil)
	tbl := lalrtable.Build(a, core.Compute(a).Sets())
	sg, err := grammar.NewSentenceGenerator(g)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var toks []runtime.Token
	for len(toks) < 4096 {
		for _, s := range sg.Generate(rng, 12) {
			toks = append(toks, runtime.Token{Sym: s})
		}
		// Separate sentences cannot be concatenated for this grammar, so
		// benchmark per-sentence parses below instead of one long input.
		break
	}
	sents := make([][]grammar.Sym, 64)
	total := 0
	for i := range sents {
		sents[i] = sg.Generate(rng, 12)
		total += len(sents[i])
	}
	p := &runtime.Parser{Tables: tbl} // no tree building
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sents {
			if _, err := p.Parse(runtime.SymLexer(g, s)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(total), "tokens/op")
}

// BenchmarkTableV_* accompany the table-compression experiment: the
// build cost of packing and the runtime cost of packed vs dense lookup.

func BenchmarkTableV_Pack(b *testing.B) {
	corpusBench(b, func(b *testing.B, a *lr0.Automaton) {
		tbl := lalrtable.Build(a, core.Compute(a).Sets())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := packed.Pack(tbl)
			b.ReportMetric(p.Stats().Ratio, "ratio")
		}
	})
}

func BenchmarkTableV_LookupDense(b *testing.B) {
	g := grammars.MustLoad("pascal")
	a := lr0.New(g, nil)
	tbl := lalrtable.Build(a, core.Compute(a).Sets())
	numT := g.NumTerminals()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % tbl.NumStates
		term := i % numT
		_ = tbl.Action[q][term]
	}
}

func BenchmarkTableV_LookupPacked(b *testing.B) {
	g := grammars.MustLoad("pascal")
	a := lr0.New(g, nil)
	tbl := lalrtable.Build(a, core.Compute(a).Sets())
	p := packed.Pack(tbl)
	numT := g.NumTerminals()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % tbl.NumStates
		term := grammar.Sym(i % numT)
		_ = p.Action(q, term)
	}
}

func BenchmarkTableIII_DeRemerPennelloLazy(b *testing.B) {
	corpusBench(b, func(b *testing.B, a *lr0.Automaton) {
		for i := 0; i < b.N; i++ {
			_ = core.ComputeLazy(a)
		}
	})
}

// ambigSetup builds a corpus grammar's automaton and DP look-aheads and
// returns the conflicts lint walks: those left to a default resolution.
func ambigSetup(tb testing.TB, name string) (*lr0.Automaton, [][]bitset.Set, []lalrtable.Conflict) {
	tb.Helper()
	g := grammars.MustLoad(name)
	a := lr0.New(g, grammar.Analyze(g))
	sets := core.Compute(a).Sets()
	var open []lalrtable.Conflict
	for _, c := range lalrtable.Build(a, sets).Conflicts {
		if c.Resolution == lalrtable.DefaultShift || c.Resolution == lalrtable.DefaultEarlyRule {
			open = append(open, c)
		}
	}
	return a, sets, open
}

// ambigWalks walks every conflict as lint does: one Walker per conflict
// at the default bounds, over the grammar's one Machine.
func ambigWalks(m *ambig.Machine, open []lalrtable.Conflict) {
	for _, c := range open {
		m.Walker(ambig.Config{}).Walk(c)
	}
}

// BenchmarkAmbigWalk measures the ambiguity walks of the grammars whose
// walks dominate /v1/lint: lua (a GL040 witness and a context-bound
// GL042), csub and pascal (context-bound GL042s).  Like lint it builds
// the walk tables (the Machine) once per grammar, here before the timer
// starts, and one Walker per conflict.  Past the first iteration each
// walk takes a warm working set from the walk scratch pool, as walks do
// on a busy server; the visited set is grown afresh every walk.
func BenchmarkAmbigWalk(b *testing.B) {
	for _, name := range []string{"lua", "csub", "pascal"} {
		b.Run(name, func(b *testing.B) {
			a, sets, open := ambigSetup(b, name)
			m := ambig.NewMachine(a, sets)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ambigWalks(m, open)
			}
		})
	}
}

// analysisSink keeps BenchmarkGrammarAnalysis's result live.
var analysisSink *grammar.Analysis

// BenchmarkGrammarAnalysis measures grammar.Analyze, the FIRST and
// nullable facts every construction starts from, on each corpus
// grammar.
func BenchmarkGrammarAnalysis(b *testing.B) {
	for _, e := range grammars.All() {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			g := grammars.MustLoad(e.Name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				analysisSink = grammar.Analyze(g)
			}
		})
	}
}
