package repro

// Allocation-regression gates for the arena-backed pipeline.  The
// benchmarks report allocs/op for the two hot constructions on the
// largest corpus grammar; the tests pin hard ceilings so a change that
// silently reverts to per-set or per-item allocation fails `go test`,
// not just a benchmark diff nobody reads.

import (
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/ambig"
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

// TestBodyEncodeAllocBound pins the path from an analysis to its
// analyze body: lalrd writes the report straight from the automaton,
// look-ahead sets and tables into a reused scratch buffer, then keeps
// either an exact-size copy or, with a store or fleet, the body section
// of the frozen record.  Each body costs the writer's per-grammar name
// table plus the output, a handful of allocations whatever the state
// count — none per state, item or string (export.Build plus
// json.MarshalIndent make thousands per body on csub).
func TestBodyEncodeAllocBound(t *testing.T) {
	g := grammars.MustLoad("csub")
	res, err := Analyze(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	method := MethodDeRemerPennello.String()
	var scratch []byte
	const bound = 16
	for _, keep := range []struct {
		name string
		body func([]byte) []byte
	}{
		{"exact-size copy", func(b []byte) []byte { return append(make([]byte, 0, len(b)), b...) }},
		{"frozen record", func(b []byte) []byte { _, body := frozen.FreezeBody("fp", b); return body }},
	} {
		got := testing.AllocsPerRun(20, func() {
			scratch = export.AppendAnalysis(scratch[:0], 1, res.Automaton, res.Lookahead, res.Tables, res.DP, method)
			_ = keep.body(scratch)
		})
		t.Logf("body encode(csub), %s: %.0f allocs for %d bytes over %d states (bound %d)",
			keep.name, got, len(scratch), len(res.Automaton.States), bound)
		if got > bound {
			t.Errorf("body encode (%s) allocates %.0f times per body, bound %d — the direct writer has regressed", keep.name, got, bound)
		}
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
// allocate O(arena growth + oracle work) blocks, about 420 over the
// grammar's walk tables (an ambig.Machine, built once outside the
// count).  Walks that copied a stack per successor and keyed
// configurations by decimal strings made about 1.46 million.
//
// The byte bound pins the pooled working set: the arena, trie, work
// lists and pair queue come warm from earlier walks, and the queue
// stores only the pairs the walk can pop, so after one warm-up walk
// lua's walks allocate about 2.1 MB, most of it the visited set, which
// is not pooled.  Growing the working set from empty on every walk
// and storing every queued pair cost 14.2 MB.  The byte bound is
// lifted under the race detector (see raceEnabled).
func TestAmbigWalkAllocBound(t *testing.T) {
	a, sets, open := ambigSetup(t, "lua")
	m := ambig.NewMachine(a, sets)
	const bound = 2000
	got := testing.AllocsPerRun(2, func() { ambigWalks(m, open) })
	t.Logf("lua ambiguity walks: %.0f allocs (bound %d)", got, bound)
	if got > bound {
		t.Errorf("lua's ambiguity walks allocate %.0f times, bound %d — the stack arena has regressed", got, bound)
	}

	// On one P the walks find the scratch the last walk put in that P's
	// pool; the least of three runs skips one a GC emptied the pool for.
	const byteBound = 3 << 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ambigWalks(m, open) // leaves a warm scratch in the pool
	bytes := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ambigWalks(m, open)
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("lua ambiguity walks: %d bytes allocated (bound %d)", bytes, byteBound)
	if bytes > byteBound && !raceEnabled {
		t.Errorf("lua's ambiguity walks allocate %d bytes, bound %d — the pooled walk scratch has regressed", bytes, byteBound)
	}
}
