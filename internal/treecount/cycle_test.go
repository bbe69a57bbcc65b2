package treecount_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/lint"
	"repro/internal/treecount"
)

// dfsDerivationCycle is the cycle check New used before it read the
// analysis's derives-alone relation: a recursive DFS over the graph
// with an edge A → B whenever some production A → α B β has α and β
// both nullable.  It stays as the oracle for ErrCyclic.
func dfsDerivationCycle(g *grammar.Grammar) bool {
	an := grammar.Analyze(g)
	n := g.NumNonterminals()
	adj := make([][]int, n)
	for pi := range g.Productions() {
		p := g.Prod(pi)
		for k, x := range p.Rhs {
			if !g.IsNonterminal(x) {
				continue
			}
			rest := true
			for m, y := range p.Rhs {
				if m != k && !an.NullableSym(y) {
					rest = false
					break
				}
			}
			if rest {
				adj[g.NtIndex(p.Lhs)] = append(adj[g.NtIndex(p.Lhs)], g.NtIndex(x))
			}
		}
	}
	state := make([]uint8, n) // 0 unvisited, 1 on stack, 2 done
	var visit func(v int) bool
	visit = func(v int) bool {
		state[v] = 1
		for _, w := range adj[v] {
			if state[w] == 1 || state[w] == 0 && visit(w) {
				return true
			}
		}
		state[v] = 2
		return false
	}
	for v := 0; v < n; v++ {
		if state[v] == 0 && visit(v) {
			return true
		}
	}
	return false
}

// TestErrCyclicAgreesWithDFSAndLint checks New's cycle verdict against
// the DFS oracle and against lint's GL010 (nullable-cycles) on the
// corpus, its mutants and hand-written cyclic grammars.
func TestErrCyclicAgreesWithDFSAndLint(t *testing.T) {
	srcs := map[string]string{
		"unit self-cycle":         "%%\ns : s | 'x' ;\n",
		"two-step cycle":          "%%\ns : a | 'x' ;\na : s ;\n",
		"cycle through nullables": "%%\ns : a s b | 'x' ;\na : ;\nb : ;\n",
		"left recursion":          "%token id\n%%\ne : e '+' e | id ;\n",
	}
	for _, e := range grammars.All() {
		srcs[e.Name] = e.Src
		for seed := int64(1); seed <= 6; seed++ {
			for i, m := range grammars.Mutations(e.Src, seed, 4) {
				srcs[fmt.Sprintf("%s mutant %d/%d", e.Name, seed, i)] = m
			}
		}
	}
	var cyclic, acyclic int
	for name, src := range srcs {
		g := grammar.MustParse(name+".y", src)
		want := dfsDerivationCycle(g)
		_, err := treecount.New(grammar.Analyze(g))
		if got := errors.Is(err, treecount.ErrCyclic); got != want {
			t.Errorf("%s: ErrCyclic = %v, DFS oracle says %v", name, got, want)
		}
		rep, err := lint.Run(g, lint.Options{Enable: []string{"nullable-cycles"}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := len(rep.Diagnostics) > 0; got != want {
			t.Errorf("%s: GL010 reported = %v, DFS oracle says %v", name, got, want)
		}
		if want {
			cyclic++
		} else {
			acyclic++
		}
	}
	if cyclic == 0 || acyclic == 0 {
		t.Fatalf("oracle saw %d cyclic and %d acyclic grammars; want both", cyclic, acyclic)
	}
}
