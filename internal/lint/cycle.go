package lint

// Cycle analysis shared by the relation passes.  The strongly connected
// components come from the Digraph traversals that already ran: the
// look-ahead solve's for reads and includes, grammar.Analysis's for
// left-corner and derives-alone.  Only unit-chains runs one of its own,
// over zero-width sets.  Lint searches for no SCCs itself; it groups the
// traversal's components and extracts a shortest cycle, so a diagnostic
// can print a concrete witness path instead of just "the relation is
// cyclic".

import "repro/internal/digraph"

// cyclic groups the nontrivial SCCs of a traversal — the components
// with ≥2 nodes, plus single nodes carrying a self-loop — ordered by
// their smallest member, members ascending.  This is the
// witness-producing complement of digraph.Stats.Cyclic.
func cyclic(st *digraph.Stats) [][]int {
	slot := make([]int, st.SCCs) // 1 + index into out, 0 until seen
	var out [][]int
	for x, member := range st.NontrivialMember {
		if !member {
			continue
		}
		c := st.Comp[x]
		if slot[c] == 0 {
			out = append(out, nil)
			slot[c] = len(out)
		}
		out[slot[c]-1] = append(out[slot[c]-1], x)
	}
	return out
}

// shortestCycle returns a shortest cycle through start restricted to
// start's component (comp holds each node's component number), as a
// node path start, …, start.  BFS from start back to start;
// deterministic because successors are scanned in adjacency order.
func shortestCycle[T int | int32](start int, adj [][]T, comp []int32) []int {
	type bfsEntry struct {
		node, prev int
	}
	order := []bfsEntry{}
	seen := map[int]bool{}
	inComp := func(y int) bool { return comp[y] == comp[start] }
	// Seed with start's successors so a self-loop yields [start, start].
	for _, t := range adj[start] {
		y := int(t)
		if !inComp(y) || seen[y] {
			continue
		}
		if y == start {
			return []int{start, start}
		}
		seen[y] = true
		order = append(order, bfsEntry{y, -1})
	}
	for i := 0; i < len(order); i++ {
		for _, t := range adj[order[i].node] {
			y := int(t)
			if y == start {
				// Reconstruct: start … node start.
				var rev []int
				for j := i; j >= 0; j = order[j].prev {
					rev = append(rev, order[j].node)
				}
				path := []int{start}
				for k := len(rev) - 1; k >= 0; k-- {
					path = append(path, rev[k])
				}
				return append(path, start)
			}
			if !inComp(y) || seen[y] {
				continue
			}
			seen[y] = true
			order = append(order, bfsEntry{y, i})
		}
	}
	return nil
}
