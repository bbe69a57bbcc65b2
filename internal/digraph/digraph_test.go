package digraph

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/guard"
	"repro/internal/obs"
)

// edgeRel builds a Succ from an adjacency list.
func edgeRel(adj [][]int) Succ {
	return func(x int, yield func(int)) {
		for _, y := range adj[x] {
			yield(y)
		}
	}
}

func seeds(inits [][]int, n int) []bitset.Set {
	f := make([]bitset.Set, n)
	for i := range f {
		f[i] = bitset.FromSlice(inits[i])
	}
	return f
}

func elems(f []bitset.Set) [][]int {
	out := make([][]int, len(f))
	for i, s := range f {
		out[i] = s.Elems()
	}
	return out
}

func TestRunDAG(t *testing.T) {
	// 0 → 1 → 2, 0 → 2. F'(i) = {i}.
	adj := [][]int{{1, 2}, {2}, {}}
	f := seeds([][]int{{0}, {1}, {2}}, 3)
	st := Run(3, edgeRel(adj), f)
	want := [][]int{{0, 1, 2}, {1, 2}, {2}}
	for i, w := range want {
		if !f[i].Equal(bitset.FromSlice(w)) {
			t.Errorf("F(%d) = %v, want %v", i, f[i].Elems(), w)
		}
	}
	if st.Cyclic() {
		t.Error("DAG reported cyclic")
	}
	if st.SCCs != 3 || st.LargestSCC != 1 || st.Edges != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRunCycle(t *testing.T) {
	// 0 ↔ 1, 1 → 2.  The SCC {0,1} must share the union {0,1,2}.
	adj := [][]int{{1}, {0, 2}, {}}
	f := seeds([][]int{{0}, {1}, {2}}, 3)
	st := Run(3, edgeRel(adj), f)
	for i := 0; i < 2; i++ {
		if !f[i].Equal(bitset.FromSlice([]int{0, 1, 2})) {
			t.Errorf("F(%d) = %v, want {0,1,2}", i, f[i].Elems())
		}
	}
	if !st.Cyclic() || st.NontrivialSCCs != 1 || st.LargestSCC != 2 {
		t.Errorf("stats = %+v", st)
	}
	if !st.NontrivialMember[0] || !st.NontrivialMember[1] || st.NontrivialMember[2] {
		t.Errorf("NontrivialMember = %v", st.NontrivialMember)
	}
}

func TestRunSelfLoop(t *testing.T) {
	adj := [][]int{{0}}
	f := seeds([][]int{{7}}, 1)
	st := Run(1, edgeRel(adj), f)
	if !st.Cyclic() || st.SelfLoops != 1 {
		t.Errorf("stats = %+v", st)
	}
	if !f[0].Equal(bitset.FromSlice([]int{7})) {
		t.Errorf("F(0) = %v", f[0].Elems())
	}
}

func TestRunLongChainSharedTail(t *testing.T) {
	// Chain 0→1→...→n-1 with F'(i) = {i}: F(0) must see everything.
	const n = 2000
	adj := make([][]int, n)
	inits := make([][]int, n)
	for i := 0; i < n; i++ {
		if i+1 < n {
			adj[i] = []int{i + 1}
		}
		inits[i] = []int{i}
	}
	f := seeds(inits, n)
	Run(n, edgeRel(adj), f)
	if got := f[0].Len(); got != n {
		t.Errorf("F(0) has %d elements, want %d", got, n)
	}
	if got := f[n-1].Len(); got != 1 {
		t.Errorf("F(n-1) has %d elements, want 1", got)
	}
}

func TestRunMatchesNaiveOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		adj := make([][]int, n)
		inits := make([][]int, n)
		for i := range adj {
			deg := rng.Intn(4)
			for d := 0; d < deg; d++ {
				adj[i] = append(adj[i], rng.Intn(n))
			}
			for k := 0; k < 1+rng.Intn(3); k++ {
				inits[i] = append(inits[i], rng.Intn(64))
			}
		}
		fd := seeds(inits, n)
		fn := seeds(inits, n)
		Run(n, edgeRel(adj), fd)
		RunNaive(n, edgeRel(adj), fn)
		for i := 0; i < n; i++ {
			if !fd[i].Equal(fn[i]) {
				t.Fatalf("trial %d node %d: digraph %v, naive %v (adj=%v inits=%v)",
					trial, i, fd[i].Elems(), fn[i].Elems(), adj, inits)
			}
		}
	}
}

func TestRunIdempotentSolution(t *testing.T) {
	// The solution is a fixpoint: re-running the equations on the
	// computed sets must not change them.
	rng := rand.New(rand.NewSource(5))
	n := 30
	adj := make([][]int, n)
	inits := make([][]int, n)
	for i := range adj {
		for d := 0; d < rng.Intn(5); d++ {
			adj[i] = append(adj[i], rng.Intn(n))
		}
		inits[i] = []int{rng.Intn(20)}
	}
	f := seeds(inits, n)
	Run(n, edgeRel(adj), f)
	snapshot := elems(f)
	RunNaive(n, edgeRel(adj), f)
	for i := range f {
		if !f[i].Equal(bitset.FromSlice(snapshot[i])) {
			t.Fatalf("node %d not a fixpoint: %v vs %v", i, snapshot[i], f[i].Elems())
		}
	}
}

func TestNaiveRoundsExceedOneOnChains(t *testing.T) {
	// Documents why Digraph wins: naive iteration needs O(chain length)
	// rounds, Digraph one pass.
	const n = 50
	adj := make([][]int, n)
	inits := make([][]int, n)
	for i := 0; i < n; i++ {
		if i+1 < n {
			adj[i] = []int{i + 1}
		}
		inits[i] = []int{i}
	}
	rounds := RunNaive(n, edgeRel(adj), seeds(inits, n))
	if rounds < 2 {
		t.Errorf("expected multiple rounds on a chain, got %d", rounds)
	}
}

func TestStatsSelfLoopCounting(t *testing.T) {
	// Nodes 0 and 2 have self-loops; node 1 is clean.  Self-loops are
	// trivial SCCs but still mark their node nontrivial (cyclic).
	adj := [][]int{{0, 1}, {2}, {2}}
	f := seeds([][]int{{0}, {1}, {2}}, 3)
	st := Run(3, edgeRel(adj), f)
	if st.SelfLoops != 2 {
		t.Errorf("SelfLoops = %d, want 2", st.SelfLoops)
	}
	if st.NontrivialSCCs != 0 {
		t.Errorf("NontrivialSCCs = %d, want 0 (self-loops are size-1)", st.NontrivialSCCs)
	}
	if !st.Cyclic() {
		t.Error("self-loops must make the relation cyclic")
	}
	want := []bool{true, false, true}
	for i, w := range want {
		if st.NontrivialMember[i] != w {
			t.Errorf("NontrivialMember[%d] = %v, want %v", i, st.NontrivialMember[i], w)
		}
	}
}

func TestStatsLargestSCCMultipleComponents(t *testing.T) {
	// Two nontrivial SCCs: {0,1} and {2,3,4}; 5 is isolated.
	adj := [][]int{{1}, {0}, {3}, {4}, {2}, {}}
	f := seeds([][]int{{0}, {1}, {2}, {3}, {4}, {5}}, 6)
	st := Run(6, edgeRel(adj), f)
	if st.NontrivialSCCs != 2 {
		t.Errorf("NontrivialSCCs = %d, want 2", st.NontrivialSCCs)
	}
	if st.LargestSCC != 3 {
		t.Errorf("LargestSCC = %d, want 3", st.LargestSCC)
	}
	if st.SCCs != 3 {
		t.Errorf("SCCs = %d, want 3 ({0,1}, {2,3,4}, {5})", st.SCCs)
	}
	for i := 0; i < 5; i++ {
		if !st.NontrivialMember[i] {
			t.Errorf("NontrivialMember[%d] = false, want true", i)
		}
	}
	if st.NontrivialMember[5] {
		t.Error("isolated node marked nontrivial")
	}
	// Every member of an SCC carries the component union.
	for _, i := range []int{2, 3, 4} {
		if !f[i].Equal(bitset.FromSlice([]int{2, 3, 4})) {
			t.Errorf("F(%d) = %v, want {2,3,4}", i, f[i].Elems())
		}
	}
}

// refReach is a brute-force oracle: reach[s][x] holds when s reaches x
// through at least one edge.
func refReach(n int, adj [][]int) [][]bool {
	reach := make([][]bool, n)
	for s := range reach {
		seen := make([]bool, n)
		stack := append([]int(nil), adj[s]...)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[x] {
				continue
			}
			seen[x] = true
			stack = append(stack, adj[x]...)
		}
		reach[s] = seen
	}
	return reach
}

// refCyclic: the relation has a nontrivial cycle iff some node reaches
// itself through at least one edge.
func refCyclic(reach [][]bool) bool {
	for s := range reach {
		if reach[s][s] {
			return true
		}
	}
	return false
}

func TestCyclicAgreesWithStatsOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		adj := make([][]int, n)
		inits := make([][]int, n)
		for i := range adj {
			for d := 0; d < rng.Intn(3); d++ {
				adj[i] = append(adj[i], rng.Intn(n))
			}
			inits[i] = []int{i}
		}
		st := Run(n, edgeRel(adj), seeds(inits, n))
		reach := refReach(n, adj)
		if got, want := st.Cyclic(), refCyclic(reach); got != want {
			t.Fatalf("trial %d: Cyclic() = %v, oracle = %v (adj=%v, stats=%+v)",
				trial, got, want, adj, st)
		}
		// Consistency inside Stats: Cyclic is exactly "some nontrivial
		// SCC or self-loop", and NontrivialMember must witness it.
		member := false
		for _, m := range st.NontrivialMember {
			member = member || m
		}
		if st.Cyclic() != member {
			t.Fatalf("trial %d: Cyclic() = %v but NontrivialMember any = %v", trial, st.Cyclic(), member)
		}
		// Comp numbers the SCCs 0..SCCs-1 in closing order: x and y
		// share a component exactly when they reach each other, and a
		// component closes before every component that reaches it.
		for x := 0; x < n; x++ {
			if c := st.Comp[x]; c < 0 || int(c) >= st.SCCs {
				t.Fatalf("trial %d: Comp[%d] = %d outside [0, %d)", trial, x, c, st.SCCs)
			}
			for y := 0; y < n; y++ {
				mutual := x == y || reach[x][y] && reach[y][x]
				if same := st.Comp[x] == st.Comp[y]; same != mutual {
					t.Fatalf("trial %d: Comp[%d] = %d, Comp[%d] = %d, mutual reach = %v (adj=%v)",
						trial, x, st.Comp[x], y, st.Comp[y], mutual, adj)
				}
				if reach[x][y] && !mutual && st.Comp[y] >= st.Comp[x] {
					t.Fatalf("trial %d: %d reaches %d but its component %d closed first (Comp[%d] = %d)",
						trial, x, y, st.Comp[x], y, st.Comp[y])
				}
			}
		}
	}
}

func TestRunUnionAccounting(t *testing.T) {
	// DAG: unions == edges (one Or per traversed edge, no SCC copies).
	adj := [][]int{{1, 2}, {2}, {}}
	st := Run(3, edgeRel(adj), seeds([][]int{{0}, {1}, {2}}, 3))
	if st.Unions != st.Edges {
		t.Errorf("DAG unions = %d, edges = %d; want equal", st.Unions, st.Edges)
	}
	// 3-cycle: 3 edge unions + 2 member copies.
	adj = [][]int{{1}, {2}, {0}}
	st = Run(3, edgeRel(adj), seeds([][]int{{0}, {1}, {2}}, 3))
	if st.Unions != 5 {
		t.Errorf("cycle unions = %d, want 5 (3 edges + 2 SCC copies)", st.Unions)
	}
}

func TestRunBudgetedFlushesCounters(t *testing.T) {
	rec := obs.New()
	adj := [][]int{{1}, {0}, {1}}
	st, err := RunBudgeted(3, edgeRel(adj), seeds([][]int{{0}, {1}, {2}}, 3), rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(obs.CRelationEdges); got != int64(st.Edges) {
		t.Errorf("relation_edges = %d, want %d", got, st.Edges)
	}
	if got := rec.Counter(obs.CBitsetUnions); got != int64(st.Unions) {
		t.Errorf("bitset_unions = %d, want %d", got, st.Unions)
	}
	if got := rec.Counter(obs.CSCCs); got != int64(st.SCCs) {
		t.Errorf("sccs = %d, want %d", got, st.SCCs)
	}
	if rec.Counter(obs.CSCCPushes) != 3 || rec.Counter(obs.CSCCPops) != 3 {
		t.Errorf("pushes/pops = %d/%d, want 3/3",
			rec.Counter(obs.CSCCPushes), rec.Counter(obs.CSCCPops))
	}
}

// wideRelation returns m independent source nodes all reading one
// shared sink: enough edges and frames for a budget to trip mid-solve.
func wideRelation(m int) (n int, adj [][]int, f []bitset.Set) {
	n = m + 1
	adj = make([][]int, n)
	inits := make([][]int, n)
	inits[0] = []int{0} // the sink
	for i := 1; i < n; i++ {
		adj[i] = []int{0}
		inits[i] = []int{i % 60}
	}
	return n, adj, seeds(inits, n)
}

// TestRunBudgetedPreCancelled: a pre-cancelled context aborts the
// traversal at its first checkpoint.
func TestRunBudgetedPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bud := guard.New(ctx, guard.Limits{CheckEvery: 1}, nil)
	n, adj, f := wideRelation(64)
	_, err := RunBudgeted(n, edgeRel(adj), f, nil, bud)
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestRunBudgetedEdgeLimit: the relation-edge ceiling trips with the
// typed limit error once the traversal crosses it.
func TestRunBudgetedEdgeLimit(t *testing.T) {
	bud := guard.New(context.Background(), guard.Limits{MaxRelationEdges: 10, CheckEvery: 1}, nil)
	n, adj, f := wideRelation(64)
	_, err := RunBudgeted(n, edgeRel(adj), f, nil, bud)
	var limit *guard.ErrLimitExceeded
	if !errors.As(err, &limit) || limit.Resource != guard.ResRelationEdges {
		t.Fatalf("err = %v, want ErrLimitExceeded on %s", err, guard.ResRelationEdges)
	}
}

// The traversal must survive relation chains far deeper than a
// goroutine stack segment: the explicit frame stack replaces recursion.
// unit-chain(n) grammars induce exactly this shape in their includes
// relation; 10^5 is well past the depth where per-frame recursion with
// bitset locals used to risk stack exhaustion.
func TestRunDeepChainNoStackOverflow(t *testing.T) {
	const n = 100_000
	adj := make([][]int, n)
	for i := 0; i < n-1; i++ {
		adj[i] = []int{i + 1}
	}
	f := make([]bitset.Set, n)
	for i := range f {
		f[i] = bitset.New(1)
	}
	f[n-1].Add(0)
	st := Run(n, edgeRel(adj), f)
	if st.SCCs != n || st.Cyclic() {
		t.Fatalf("chain stats: SCCs=%d cyclic=%v, want %d acyclic", st.SCCs, st.Cyclic(), n)
	}
	// Every node receives the tail's set.
	for i := 0; i < n; i += n / 100 {
		if !f[i].Has(0) {
			t.Fatalf("node %d missing propagated element", i)
		}
	}
	if st.Edges != n-1 || st.Unions != n-1 {
		t.Errorf("edges/unions = %d/%d, want %d/%d", st.Edges, st.Unions, n-1, n-1)
	}
}

// Same depth, but as one giant cycle: the SCC pop path must also be
// iteration-safe and assign the component union to every member.
func TestRunDeepCycle(t *testing.T) {
	const n = 100_000
	adj := make([][]int, n)
	for i := range adj {
		adj[i] = []int{(i + 1) % n}
	}
	f := make([]bitset.Set, n)
	for i := range f {
		f[i] = bitset.New(2)
	}
	f[n/2].Add(1)
	st := Run(n, edgeRel(adj), f)
	if st.SCCs != 1 || st.LargestSCC != n || !st.Cyclic() {
		t.Fatalf("cycle stats: %+v", st)
	}
	for i := 0; i < n; i += n / 100 {
		if !f[i].Has(1) {
			t.Fatalf("node %d missing component union", i)
		}
	}
}
