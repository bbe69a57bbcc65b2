package grammars

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
	"repro/internal/lr1"
	"repro/internal/prop"
	"repro/internal/runtime"
	"repro/internal/slr"
)

func TestCorpusProperties(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			g, err := Load(e.Name)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			// Every corpus grammar is reduced.
			if useless := grammar.CheckUseful(g).Useless(g); len(useless) > 0 {
				t.Errorf("useless symbols: %v", useless)
			}
			a := lr0.New(g, nil)
			dp := core.Compute(a)
			if dp.NotLRk() {
				t.Error("corpus grammar has cyclic reads (not LR(k))")
			}
			tbl := lalrtable.Build(a, dp.Sets())
			sr, rr := tbl.Unresolved()
			if sr != e.WantSR || rr != e.WantRR {
				t.Errorf("LALR conflicts sr=%d rr=%d, want %d/%d\n%s",
					sr, rr, e.WantSR, e.WantRR, tbl.ConflictReport())
			}
			if tbl.Adequate() != e.LALRAdequate {
				t.Errorf("LALR adequate = %v, want %v", tbl.Adequate(), e.LALRAdequate)
			}
			stbl := lalrtable.Build(a, slr.Compute(a))
			if stbl.Adequate() != e.SLRAdequate {
				ssr, srr := stbl.Unresolved()
				t.Errorf("SLR adequate = %v (sr=%d rr=%d), want %v",
					stbl.Adequate(), ssr, srr, e.SLRAdequate)
			}
		})
	}
}

// Every corpus grammar: DP == propagation == canonical merge, exactly,
// and the lazy path reports the same conflicts as DP.
func TestCorpusMethodAgreement(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			g := MustLoad(e.Name)
			an := grammar.Analyze(g)
			a := lr0.New(g, an)
			dp := core.Compute(a)
			propSets, _ := prop.Compute(a)
			merged := lr1.New(g, an).MergeLALR(a)
			for q, s := range a.States {
				for i, pi := range s.Reductions {
					if pi == 0 {
						continue
					}
					if !dp.LA[q][i].Equal(merged[q][i]) || !dp.LA[q][i].Equal(propSets[q][i]) {
						t.Fatalf("state %d LA(%s): DP %s, prop %s, merge %s",
							q, g.ProdString(pi),
							grammar.TerminalSetNames(g, dp.LA[q][i]),
							grammar.TerminalSetNames(g, propSets[q][i]),
							grammar.TerminalSetNames(g, merged[q][i]))
					}
				}
			}
			// The lazy path gives adequate states default reductions, so
			// its LA sets differ from DP's there; what it promises is the
			// same conflict report.
			full := lalrtable.Build(a, dp.Sets()).Conflicts
			lazy := lalrtable.Build(a, core.ComputeLazy(a).Sets()).Conflicts
			if !reflect.DeepEqual(lazy, full) {
				t.Fatalf("lazy conflicts differ from DP's: %d vs %d", len(lazy), len(full))
			}
		})
	}
}

// Adequate corpus grammars parse their own random sentences.  (For
// grammars with default-resolved conflicts the tables are still
// deterministic, but generated sentences may use the un-taken parse, so
// only adequate ones give a clean oracle.)
func TestCorpusSentenceRoundTrip(t *testing.T) {
	for _, e := range All() {
		if !e.LALRAdequate {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			g := MustLoad(e.Name)
			a := lr0.New(g, nil)
			tbl := lalrtable.Build(a, core.Compute(a).Sets())
			for _, c := range tbl.Conflicts {
				if c.Resolution == lalrtable.ResolvedError {
					// %nonassoc deliberately rejects part of the
					// grammar's language (e.g. SQL's a < b < c), so
					// generated sentences are not a valid oracle.
					t.Skipf("grammar restricts its language via %%nonassoc")
				}
			}
			p := runtime.New(tbl)
			sg, err := grammar.NewSentenceGenerator(g)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(e.Name))))
			for i := 0; i < 100; i++ {
				sent := sg.Generate(rng, 12)
				if len(sent) > 4000 {
					continue // keep pathological blowups out of the test budget
				}
				if _, err := p.Parse(runtime.SymLexer(g, sent)); err != nil {
					t.Fatalf("sentence %d rejected: %v", i, err)
				}
			}
		})
	}
}

func TestGetAndLoadErrors(t *testing.T) {
	if _, err := Get("no-such"); err == nil {
		t.Error("Get of unknown grammar should fail")
	}
	if _, err := Load("no-such"); err == nil {
		t.Error("Load of unknown grammar should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustLoad of unknown grammar should panic")
		}
	}()
	MustLoad("no-such")
}

func TestSyntheticFamilies(t *testing.T) {
	t.Run("expr-levels", func(t *testing.T) {
		prev := 0
		for _, n := range []int{1, 4, 8} {
			g := ExprLevels(n)
			a := lr0.New(g, nil)
			if len(a.States) <= prev {
				t.Errorf("ExprLevels(%d): states %d did not grow", n, len(a.States))
			}
			prev = len(a.States)
			tbl := lalrtable.Build(a, core.Compute(a).Sets())
			if !tbl.Adequate() {
				t.Errorf("ExprLevels(%d) should be LALR(1)-adequate", n)
			}
		}
	})
	t.Run("unit-chain", func(t *testing.T) {
		g := UnitChain(10)
		a := lr0.New(g, nil)
		dp := core.Compute(a)
		st := dp.Stats()
		if st.IncludesEdges < 10 {
			t.Errorf("UnitChain(10) includes edges = %d, want ≥ 10", st.IncludesEdges)
		}
		// The 't' lookahead must reach the deepest reduction a10 → 'x'.
		g10 := g.SymByName("a10")
		if g10 == grammar.NoSym {
			t.Fatal("a10 missing")
		}
		tSym := g.SymByName("t")
		found := false
		for q, s := range a.States {
			for i, pi := range s.Reductions {
				if g.Prod(pi).Lhs == g10 {
					found = true
					if !dp.LA[q][i].Has(int(tSym)) {
						t.Errorf("LA(a10→'x') = %s, want to contain 't'",
							grammar.TerminalSetNames(g, dp.LA[q][i]))
					}
				}
			}
		}
		if !found {
			t.Error("a10 reduction not found")
		}
	})
	t.Run("nullable-chain", func(t *testing.T) {
		g := NullableChain(8)
		a := lr0.New(g, nil)
		dp := core.Compute(a)
		if dp.Stats().ReadsEdges < 8 {
			t.Errorf("NullableChain(8) reads edges = %d, want ≥ 8", dp.Stats().ReadsEdges)
		}
		// Read(0, a0) must see 'x' through the whole nullable chain.
		i := a.NtTransIdx(0, g.SymByName("a0"))
		if i < 0 {
			t.Fatal("no (0,a0) transition")
		}
		if !dp.Read[i].Has(int(g.SymByName("x"))) {
			t.Errorf("Read(0,a0) = %s, want to contain 'x'",
				grammar.TerminalSetNames(g, dp.Read[i]))
		}
	})
	t.Run("random-reduced", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 50; i++ {
			g := Random(rng, 5, 4)
			if useless := grammar.CheckUseful(g).Useless(g); len(useless) > 0 {
				t.Fatalf("Random produced unreduced grammar: %v", useless)
			}
		}
	})
	t.Run("panics", func(t *testing.T) {
		for name, f := range map[string]func(){
			"expr":     func() { ExprLevels(0) },
			"unit":     func() { UnitChain(0) },
			"nullable": func() { NullableChain(0) },
			"random":   func() { Random(rand.New(rand.NewSource(1)), 0, 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: expected panic on bad argument", name)
					}
				}()
				f()
			}()
		}
	})
}

// Every corpus grammar round-trips through the yacc serialiser with
// identical analysis results.
func TestCorpusWriteYaccRoundTrip(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			g := MustLoad(e.Name)
			g2, err := grammar.Parse(e.Name+".y", g.WriteYacc())
			if err != nil {
				t.Fatalf("reparse: %v", err)
			}
			if len(g2.Productions()) != len(g.Productions()) {
				t.Fatalf("production count changed: %d → %d", len(g.Productions()), len(g2.Productions()))
			}
			a2 := lr0.New(g2, nil)
			tbl2 := lalrtable.Build(a2, core.Compute(a2).Sets())
			sr, rr := tbl2.Unresolved()
			if sr != e.WantSR || rr != e.WantRR {
				t.Errorf("round-tripped grammar conflicts sr=%d rr=%d, want %d/%d", sr, rr, e.WantSR, e.WantRR)
			}
		})
	}
}

func TestUnitChainReversedAntiAligned(t *testing.T) {
	g := UnitChainReversed(12)
	a := lr0.New(g, nil)
	dp := core.Compute(a)
	// Same semantic content as UnitChain: 't' flows to the deepest rule.
	tSym := g.SymByName("t")
	found := false
	for q, s := range a.States {
		for i, pi := range s.Reductions {
			if g.ProdString(pi) == "a12 → x" {
				found = true
				if !dp.LA[q][i].Has(int(tSym)) {
					t.Errorf("LA(a12→x) = %s, want to contain 't'",
						grammar.TerminalSetNames(g, dp.LA[q][i]))
				}
			}
		}
	}
	if !found {
		t.Fatal("deepest reduction not found")
	}
	// And the look-ahead sets equal the forward chain's, rule for rule.
	fwd := UnitChain(12)
	fa := lr0.New(fwd, nil)
	fdp := core.Compute(fa)
	count := func(dp2 [][]int32) int {
		n := 0
		for _, e := range dp2 {
			n += len(e)
		}
		return n
	}
	if count(dp.Includes) != count(fdp.Includes) {
		t.Errorf("includes edges differ: %d vs %d", count(dp.Includes), count(fdp.Includes))
	}
	defer func() {
		if recover() == nil {
			t.Error("UnitChainReversed(0) should panic")
		}
	}()
	UnitChainReversed(0)
}
