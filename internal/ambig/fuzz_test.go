package ambig

// FuzzAmbig drives the full prover pipeline — parse, LR(0), DeRemer–
// Pennello look-aheads, tables, then an SR-automaton walk from every
// unresolved conflict — over arbitrary grammar source under tiny bounds
// and a deadline budget.  The property is totality: typed errors and
// Undecided verdicts are fine, panics and unproven Ambiguous verdicts
// are not.

import (
	"context"
	"testing"
	"time"

	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/guard"
	"repro/internal/lalrtable"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

func FuzzAmbig(f *testing.F) {
	for _, e := range grammars.All() {
		f.Add(e.Src)
	}
	for _, e := range grammars.All() {
		for _, m := range grammars.Mutations(e.Src, 1, 4) {
			f.Add(m)
		}
	}
	limits := guard.Limits{
		MaxStates:        500,
		MaxLR1States:     1000,
		MaxTableEntries:  1 << 18,
		MaxRelationEdges: 1 << 18,
		CheckEvery:       16,
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := grammar.Parse("fuzz.y", src)
		if err != nil {
			return
		}
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(2*time.Second))
		defer cancel()
		bud := guard.New(ctx, limits, nil)
		pr, err := pipeline.Build(g, pipeline.Tables, nil, bud)
		if err != nil {
			return
		}
		w := NewMachine(pr.Auto, pr.DP.Sets()).Walker(Config{
			Bounds:   Bounds{MaxLen: 6, MaxPairs: 128, MaxSteps: 128, MaxContexts: 8},
			Budget:   bud,
			Recorder: obs.New(),
		})
		for _, c := range pr.Tables.Conflicts {
			if c.Resolution != lalrtable.DefaultShift && c.Resolution != lalrtable.DefaultEarlyRule {
				continue
			}
			v := w.Walk(c)
			if v.Kind == Ambiguous && (v.Derivations < 2 || v.Trees < 2) {
				t.Fatalf("unproven ambiguous verdict: %+v", v)
			}
		}
	})
}
