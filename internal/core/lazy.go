package core

import (
	"repro/internal/bitset"
	"repro/internal/digraph"
	"repro/internal/lr0"
)

// ComputeLazy is the on-demand variant production generators use
// (bison computes look-ahead only where it matters): LA sets are
// evaluated exactly for reductions in *inadequate* states — states with
// a shift/reduce or reduce/reduce collision under LR(0) — while
// reductions in adequate states receive the full terminal set, i.e.
// they become unconditional default reductions.  The accepted language
// is unchanged (error detection may be delayed past a default
// reduction, exactly as with yacc's packed tables); the work saved is
// the Follow evaluation for the large adequate majority of states.
//
// The restriction is sound because Digraph is run on the sub-relation
// induced by the transitions actually reachable from the needed
// lookbacks through includes and reads edges.
//
// Diagnostics caveat: NotLRk and Exact on a lazy result consider only
// the needed sub-relation; use Compute when the diagnoses matter.
//
// The lazy path is used by the generator on trusted inputs and stays
// ungoverned and unobserved; the nil budgets below make the shared
// relation sweeps infallible here.
func ComputeLazy(a *lr0.Automaton) *Result {
	r := &Result{Auto: a}
	if err := r.computeDRAndReads(nil); err != nil {
		panic(err)
	}
	if err := r.computeIncludesAndLookback(nil); err != nil {
		panic(err)
	}
	g := a.G
	n := len(a.NtTrans)

	// Mark the transitions needed: those reachable from the lookbacks of
	// reductions in inadequate states, via includes edges (for the
	// Follow system) and then reads edges (for the Read system).
	needed := make([]bool, n)
	var work []int
	mark := func(i int) {
		if !needed[i] {
			needed[i] = true
			work = append(work, i)
		}
	}
	for q, s := range a.States {
		if !a.Inadequate(s) {
			continue
		}
		for ord, pi := range s.Reductions {
			if pi == 0 {
				continue
			}
			for _, lb := range r.Lookback[q][ord] {
				mark(int(lb))
			}
		}
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		for _, j := range r.Includes[i] {
			mark(int(j))
		}
		for _, j := range r.Reads[i] {
			mark(int(j))
		}
	}

	restrict := func(adj [][]int32) digraph.Succ {
		return func(x int, yield func(int)) {
			if !needed[x] {
				return
			}
			for _, y := range adj[x] {
				yield(int(y))
			}
		}
	}

	readArena := bitset.NewArena(n, g.NumTerminals())
	r.Read = readArena.Sets()
	for i := range r.Read {
		if needed[i] {
			r.DR[i].CopyInto(&r.Read[i])
		}
	}
	r.ReadsStats = digraph.Run(n, restrict(r.Reads), r.Read)
	r.Follow = readArena.Clone().Sets()
	r.IncludesStats = digraph.Run(n, restrict(r.Includes), r.Follow)

	full := bitset.New(g.NumTerminals())
	for t := 0; t < g.NumTerminals(); t++ {
		full.Add(t)
	}
	laArena := bitset.NewArena(r.redBase[len(a.States)], g.NumTerminals())
	laSets := laArena.Sets()
	r.LA = make([][]bitset.Set, len(a.States))
	for q, s := range a.States {
		base := r.redBase[q]
		r.LA[q] = laSets[base : base+len(s.Reductions) : base+len(s.Reductions)]
		inad := a.Inadequate(s)
		for i := range s.Reductions {
			if !inad {
				// Default reduction: fire on any look-ahead.
				full.CopyInto(&r.LA[q][i])
				continue
			}
			la := r.LA[q][i]
			for _, ti := range r.Lookback[q][i] {
				la.Or(r.Follow[ti])
			}
		}
	}
	return r
}
