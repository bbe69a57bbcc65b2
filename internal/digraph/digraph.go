// Package digraph implements the Digraph algorithm of DeRemer and
// Pennello (1979/1982), which evaluates set-valued equation systems of
// the form
//
//	F(x) = F'(x) ∪ ⋃ { F(y) : x R y }
//
// over a finite node set X and relation R, in time linear in |X| + |R|
// (counting one bit-set union as a unit).  The algorithm is a
// depth-first traversal with an explicit stack that detects strongly
// connected components a la Tarjan: every node in an SCC receives the
// union of the component's initial sets and of everything the component
// reads, computed exactly once.
//
// The same traversal reports whether the relation contains a nontrivial
// cycle (an SCC with more than one node, or a self-loop), which the
// paper uses as a diagnostic: a cyclic `reads` relation proves the
// grammar is not LR(k) for any k, and a cyclic `includes` relation means
// the computed look-ahead sets may overapproximate (and the grammar is
// not LALR(1)).
package digraph

import (
	"repro/internal/bitset"
	"repro/internal/guard"
	"repro/internal/obs"
)

// Succ enumerates the successors of node x under the relation R by
// calling yield for each y with x R y.  Duplicate edges are harmless.
type Succ func(x int, yield func(y int))

// Stats reports structural facts about the traversal, used by the
// experiment harness to regenerate the paper's relation tables.
type Stats struct {
	Nodes            int
	Edges            int // edges traversed (counting duplicates)
	Unions           int // bit-set unions performed (edges + SCC copies)
	SCCs             int // number of strongly connected components
	NontrivialSCCs   int // SCCs with ≥2 nodes
	SelfLoops        int // nodes x with x R x
	LargestSCC       int
	NontrivialMember []bool // per node: in a nontrivial SCC or self-loop
	// Comp is each node's component number, in the order components
	// close: x and y reach each other exactly when Comp[x] == Comp[y].
	Comp []int32
}

// Cyclic reports whether the relation has any nontrivial cycle.
func (s *Stats) Cyclic() bool { return s.NontrivialSCCs > 0 || s.SelfLoops > 0 }

// Run solves F(x) = init[x] ∪ ⋃{F(y) : x R y} for all x in [0, n) and
// writes the solution into f, which must have length n.  init and f may
// alias element-wise only if each f[x] starts equal to init[x]; callers
// typically pass f pre-seeded with the initial sets and init == f.
//
// The returned Stats describe the relation's SCC structure.
func Run(n int, rel Succ, f []bitset.Set) *Stats {
	st, err := RunBudgeted(n, rel, f, nil, nil)
	if err != nil {
		// A nil Budget enforces nothing; no error is possible.
		panic(err)
	}
	return st
}

// RunBudgeted is Run with observability and under a resource budget.
// On a non-nil Recorder it flushes the traversal's cost-model counters
// (edges traversed, unions performed, stack pushes/pops, components
// found) once at the end, so the traversal itself carries no per-edge
// recording cost.  The traversal checkpoints cancellation once per
// loop step and trips guard.ResRelationEdges when the number of edges
// traversed crosses Limits.MaxRelationEdges.  On error the solution in
// f is partial and must be discarded.  A nil Recorder and a nil Budget
// make it identical to Run.
func RunBudgeted(n int, rel Succ, f []bitset.Set, rec *obs.Recorder, bud *guard.Budget) (*Stats, error) {
	d := &runner{
		rel:   rel,
		f:     f,
		bud:   bud,
		depth: make([]int32, n),
		low:   make([]int32, n),
		stats: Stats{Nodes: n, NontrivialMember: make([]bool, n)},
	}
	for x := 0; x < n; x++ {
		if d.depth[x] == unvisited {
			if err := d.traverse(x); err != nil {
				return nil, err
			}
		}
	}
	// Every node is completed, depth[x] = -(component+1): decode in
	// place, so the component numbers cost no allocation of their own.
	for x, c := range d.depth {
		d.depth[x] = -c - 1
	}
	d.stats.Comp = d.depth
	if rec != nil {
		// Every node is pushed and popped exactly once.
		rec.Add(obs.CRelationEdges, int64(d.stats.Edges))
		rec.Add(obs.CBitsetUnions, int64(d.stats.Unions))
		rec.Add(obs.CSCCPushes, int64(n))
		rec.Add(obs.CSCCPops, int64(n))
		rec.Add(obs.CSCCs, int64(d.stats.SCCs))
	}
	return &d.stats, nil
}

const unvisited int32 = 0

type runner struct {
	rel   Succ
	f     []bitset.Set
	bud   *guard.Budget
	stack []int32
	// depth[x]: 0 = unvisited, > 0 = on the stack at that 1-based
	// depth, < 0 = completed in component -depth[x]-1 (the paper's
	// "infinity", with the component number folded in).
	depth []int32
	low   []int32
	stats Stats

	// Iteration state of traverse: the frame stack replaces the call
	// stack, and succBuf holds the successor lists of all open frames
	// back to back (each frame remembers its start offset).
	frames  []frame
	succBuf []int32
	collect func(y int) // reusable yield closure appending to succBuf
}

// frame is one open node of the traversal: x, its successors in
// succBuf[start:end], and how many of them have been processed.
type frame struct {
	x          int32
	start, end int32
	k          int32
	selfLoop   bool
}

// traverse is the paper's TRAVERSE procedure with the recursion made
// explicit: deep relation chains (the unit-chain(n) grammar family
// produces includes paths as long as the grammar) are bounded by heap,
// not by the goroutine stack.
func (r *runner) traverse(root int) error {
	r.push(root)
	for len(r.frames) > 0 {
		// One checkpoint per loop step: each step either opens a frame,
		// consumes an edge or closes a frame, so cancellation lands
		// within one amortization window of work.
		if err := r.bud.Check(); err != nil {
			return err
		}
		if err := r.bud.Limit(guard.ResRelationEdges, r.stats.Edges); err != nil {
			return err
		}
		fr := &r.frames[len(r.frames)-1]
		x := int(fr.x)
		if fr.k < fr.end-fr.start {
			y := int(r.succBuf[fr.start+fr.k])
			if r.depth[y] == unvisited {
				// Descend; the edge is handled when control returns and
				// finds y visited.
				r.push(y)
				continue
			}
			fr.k++
			r.stats.Edges++
			if y == x {
				fr.selfLoop = true
			}
			if r.depth[y] > 0 && r.low[y] < r.low[x] {
				// y is on the stack: x and y are in the same SCC candidate.
				r.low[x] = r.low[y]
			}
			r.f[x].Or(r.f[y])
			r.stats.Unions++
			continue
		}

		// All edges of x processed: close the frame.
		if fr.selfLoop {
			r.stats.SelfLoops++
			r.stats.NontrivialMember[x] = true
		}
		if r.low[x] == r.depth[x] {
			// x is the root of an SCC: pop it and assign every member the
			// root's set (the union over the whole component).
			r.stats.SCCs++
			size := 0
			//guardloop:ok — pops the Tarjan stack down to x; strictly shrinking.
			for {
				top := int(r.stack[len(r.stack)-1])
				r.stack = r.stack[:len(r.stack)-1]
				r.depth[top] = -int32(r.stats.SCCs)
				size++
				if top == x {
					break
				}
				r.stats.NontrivialMember[top] = true
				r.f[x].CopyInto(&r.f[top])
				r.stats.Unions++
			}
			if size > 1 {
				r.stats.NontrivialSCCs++
				r.stats.NontrivialMember[x] = true
			}
			if size > r.stats.LargestSCC {
				r.stats.LargestSCC = size
			}
		}
		r.succBuf = r.succBuf[:fr.start]
		r.frames = r.frames[:len(r.frames)-1]
	}
	return nil
}

// push opens a frame for x: marks it on the Tarjan stack and collects
// its successor list into the shared buffer.
func (r *runner) push(x int) {
	r.stack = append(r.stack, int32(x))
	d := int32(len(r.stack))
	r.depth[x] = d
	r.low[x] = d
	start := int32(len(r.succBuf))
	if r.collect == nil {
		r.collect = func(y int) { r.succBuf = append(r.succBuf, int32(y)) }
	}
	r.rel(x, r.collect)
	r.frames = append(r.frames, frame{x: int32(x), start: start, end: int32(len(r.succBuf))})
}

// RunNaive solves the same equation system by chaotic iteration to a
// fixpoint.  It exists purely as the baseline for the paper's efficiency
// argument (Digraph does one union per edge; naive iteration does
// O(edges) unions per round for as many rounds as the longest chain) and
// as a differential-testing oracle for Run.
func RunNaive(n int, rel Succ, f []bitset.Set) (rounds int) {
	// Monotone fixpoint over finite sets: each round either grows some
	// f[x] or is the last.  Deliberately unbudgeted — it is the
	// differential-testing baseline and must not share failure modes
	// with the governed runner it checks.
	//guardloop:ok
	for changed := true; changed; {
		changed = false
		rounds++
		for x := 0; x < n; x++ {
			rel(x, func(y int) {
				if f[x].Or(f[y]) {
					changed = true
				}
			})
		}
	}
	return rounds
}
