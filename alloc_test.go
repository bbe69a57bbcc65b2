package repro

// Allocation-regression gates for the arena-backed pipeline.  The
// benchmarks report allocs/op for the two hot constructions on the
// largest corpus grammar; the tests pin hard ceilings so a change that
// silently reverts to per-set or per-item allocation fails `go test`,
// not just a benchmark diff nobody reads.

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/frozen"
	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/lr0"
)

func csubAutomaton(tb testing.TB) (*grammar.Grammar, *grammar.Analysis, *lr0.Automaton) {
	tb.Helper()
	g := grammars.MustLoad("csub")
	an := grammar.Analyze(g)
	return g, an, lr0.New(g, an)
}

// BenchmarkAllocDPCompute isolates the full DeRemer–Pennello pass on the
// C subset grammar (the corpus's largest machine) purely for its
// allocs/op series; BenchmarkTableII_Relations is the timing view of the
// same work across the whole corpus.
func BenchmarkAllocDPCompute(b *testing.B) {
	_, _, a := csubAutomaton(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Compute(a)
	}
}

// BenchmarkAllocLR0Construction is the same gate for LR(0) construction.
func BenchmarkAllocLR0Construction(b *testing.B) {
	g, an, _ := csubAutomaton(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lr0.New(g, an)
	}
}

// TestComputeAllocBound: with every set family arena-backed and every
// relation CSR-packed, core.Compute allocates O(1) blocks per *family*,
// not per set.  A per-set regression costs at least one allocation per
// nonterminal transition for each of DR/Read/Follow — ≥3× the machine's
// nt-transition count — so the nt-transition count itself is a ceiling
// with a wide margin on both sides (currently ~8× above the real count,
// ~9× below the cheapest regression).
func TestComputeAllocBound(t *testing.T) {
	_, _, a := csubAutomaton(t)
	bound := float64(len(a.NtTrans))
	got := testing.AllocsPerRun(10, func() { _ = core.Compute(a) })
	t.Logf("core.Compute(csub): %.0f allocs (bound %.0f)", got, bound)
	if got > bound {
		t.Errorf("core.Compute allocates %.0f times on csub, bound %.0f — the arena path has regressed", got, bound)
	}
}

// TestComputeParallelAllocBound holds the parallel Digraph path to the
// same per-family discipline as the serial one.  The fan-out adds the
// condensation CSRs, the per-level goroutines and the forked budgets —
// all O(workers + SCC structure), none O(sets) — so a generous constant
// on top of the serial bound still fails long before any per-set
// allocation comes back.
func TestComputeParallelAllocBound(t *testing.T) {
	_, _, a := csubAutomaton(t)
	bound := float64(len(a.NtTrans)) + 512
	got := testing.AllocsPerRun(10, func() {
		if _, err := core.ComputeWith(a, core.Options{Workers: 4}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("core.ComputeWith(csub, 4 workers): %.0f allocs (bound %.0f)", got, bound)
	if got > bound {
		t.Errorf("parallel core.ComputeWith allocates %.0f times on csub, bound %.0f — the arena path has regressed", got, bound)
	}
}

// TestFrozenDecodeAllocBound pins the zero-copy claim of the frozen
// loader: decoding a table is header validation plus slice views into
// the input buffer, so it allocates O(1) blocks per table — the Table
// struct, the fingerprint string, and nothing per state or per cell.
func TestFrozenDecodeAllocBound(t *testing.T) {
	raw, err := os.ReadFile("internal/frozen/testdata/golden.frz")
	if err != nil {
		t.Fatal(err)
	}
	const bound = 4
	got := testing.AllocsPerRun(10, func() {
		if _, err := frozen.Decode(raw); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("frozen.Decode(golden): %.0f allocs (bound %d)", got, bound)
	if got > bound {
		t.Errorf("frozen.Decode allocates %.0f times, bound %d — the zero-copy load has regressed", got, bound)
	}
}

// TestBodyEncodeAllocBound pins the one-pass response encoder: lalrd
// encodes each analyze body into a reused scratch buffer and keeps one
// exact-size copy, so a body costs one output allocation, amortised —
// none per state, string or map key (json.MarshalIndent makes
// thousands per body on csub).
func TestBodyEncodeAllocBound(t *testing.T) {
	g := grammars.MustLoad("csub")
	res, err := Analyze(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := export.Build(res.Automaton, res.Lookahead, res.Tables, res.DP, MethodDeRemerPennello.String())
	var scratch []byte
	const bound = 1
	got := testing.AllocsPerRun(20, func() {
		scratch = rep.AppendJSON(scratch[:0], 1)
		body := make([]byte, len(scratch))
		copy(body, scratch)
	})
	t.Logf("body encode(csub): %.0f allocs for %d bytes (bound %d)", got, len(scratch), bound)
	if got > bound {
		t.Errorf("body encode allocates %.0f times per body, bound %d — the one-pass encoder has regressed", got, bound)
	}
}

// TestLR0AllocBound pins LR(0) construction, whose irreducible
// allocations are the per-state kernels and transition slices.  The
// interned/scratch-buffer construction sits near 5.5 allocations per
// state on csub; the pre-interning construction was ~51.  The ceiling of
// 12 per state keeps double headroom for layout drift while still
// failing long before any map-per-state or sort-per-state comes back.
func TestLR0AllocBound(t *testing.T) {
	g, an, a := csubAutomaton(t)
	bound := float64(12 * len(a.States))
	got := testing.AllocsPerRun(10, func() { _ = lr0.New(g, an) })
	t.Logf("lr0.New(csub): %.0f allocs over %d states (bound %.0f)", got, len(a.States), bound)
	if got > bound {
		t.Errorf("lr0.New allocates %.0f times on csub, bound %.0f — the allocation-lean construction has regressed", got, bound)
	}
}

// TestAmbigWalkAllocBound pins the hash-consed ambiguity walk: stacks
// are nodes of a per-walk arena, configurations are pairs of node ids,
// and extensions share a token trie, so lua's two walks (a GL040
// witness after ~3,800 configurations and a context-bound GL042)
// allocate O(arena growth + oracle work) blocks, about 2,300.  Walks
// that copied a stack per successor and keyed configurations by
// decimal strings made about 1.46 million.
func TestAmbigWalkAllocBound(t *testing.T) {
	a, sets, open := ambigSetup(t, "lua")
	const bound = 20000
	got := testing.AllocsPerRun(2, func() { ambigWalks(a, sets, open) })
	t.Logf("lua ambiguity walks: %.0f allocs (bound %d)", got, bound)
	if got > bound {
		t.Errorf("lua's ambiguity walks allocate %.0f times, bound %d — the stack arena has regressed", got, bound)
	}
}
