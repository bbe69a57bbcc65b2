package lr0_test

import (
	"testing"

	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/lr0"
)

// Accept is the one state whose kernel is {$accept → start $end .},
// on the corpus and on its mutants.
func TestAcceptMatchesKernelScan(t *testing.T) {
	var srcs []string
	for _, e := range grammars.All() {
		srcs = append(srcs, e.Src)
		for seed := int64(1); seed <= 6; seed++ {
			srcs = append(srcs, grammars.Mutations(e.Src, seed, 2)...)
		}
	}
	checked := 0
	for i, src := range srcs {
		g, err := grammar.Parse("m.y", src)
		if err != nil {
			continue
		}
		a := lr0.New(g, nil)
		scan := -1
		for _, s := range a.States {
			if len(s.Kernel) == 1 && s.Kernel[0] == (lr0.Item{Prod: 0, Dot: 2}) {
				if scan >= 0 {
					t.Fatalf("source %d: two accept kernels, states %d and %d", i, scan, s.Index)
				}
				scan = s.Index
			}
		}
		if scan < 0 || a.Accept != scan {
			t.Fatalf("source %d: Accept = %d, kernel scan = %d", i, a.Accept, scan)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d grammars checked", checked)
	}
}
