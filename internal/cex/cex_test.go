package cex

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
)

func analyze(t *testing.T, src string) (*lr0.Automaton, *lalrtable.Tables) {
	t.Helper()
	g := grammar.MustParse("t.y", src)
	a := lr0.New(g, nil)
	return a, lalrtable.Build(a, core.Compute(a).Sets())
}

// simulate runs the LR automaton over the prefix and reports whether
// the automaton passes through state `want` while the conflicting
// lookahead is current.  The conflicted state may be entered mid-way
// through the reduce cascade the lookahead triggers, so every state
// along that cascade counts.
func simulate(t *testing.T, a *lr0.Automaton, tbl *lalrtable.Tables, prefix []grammar.Sym, la grammar.Sym, want int) bool {
	t.Helper()
	states := []int32{0}
	toks := append(append([]grammar.Sym{}, prefix...), la)
	pos := 0
	for steps := 0; steps < 100000; steps++ {
		state := states[len(states)-1]
		if pos == len(toks)-1 && int(state) == want {
			return true
		}
		act := tbl.Action[state][toks[pos]]
		switch act.Kind() {
		case lalrtable.Shift:
			if pos == len(toks)-1 {
				return false // lookahead consumed without hitting want
			}
			states = append(states, int32(act.Target()))
			pos++
		case lalrtable.Reduce:
			prod := a.G.Prod(act.Target())
			states = states[:len(states)-len(prod.Rhs)]
			to := tbl.Goto[states[len(states)-1]][a.G.NtIndex(prod.Lhs)]
			if to < 0 {
				t.Fatal("corrupt goto during simulation")
			}
			states = append(states, to)
		default:
			if pos == len(toks)-1 {
				return false
			}
			t.Fatalf("prefix is not viable: %v at state %d, token %s",
				act, state, a.G.SymName(toks[pos]))
		}
	}
	t.Fatal("simulation did not terminate")
	return false
}

func TestDanglingElseExample(t *testing.T) {
	a, tbl := analyze(t, `
%token IF THEN ELSE other cond
%%
stmt : IF cond THEN stmt
     | IF cond THEN stmt ELSE stmt
     | other ;
`)
	g := a.G
	gen := NewGenerator(a)
	var conflicts []lalrtable.Conflict
	for _, c := range tbl.Conflicts {
		if c.Resolution == lalrtable.DefaultShift {
			conflicts = append(conflicts, c)
		}
	}
	if len(conflicts) != 1 {
		t.Fatalf("conflicts = %d, want 1", len(conflicts))
	}
	ex := gen.ForConflict(conflicts[0])
	if ex == nil {
		t.Fatal("no example")
	}
	s := ex.String(g)
	// The shortest trigger needs no nesting: a one-armed if followed by
	// ELSE is exactly where the shift/reduce decision happens.
	want := "IF cond THEN other • ELSE"
	if s != want {
		t.Errorf("example = %q, want %q", s, want)
	}
	// The example must actually reach the conflict state.
	if !simulate(t, a, tbl, ex.Prefix, ex.Terminal, conflicts[0].State) {
		t.Errorf("example %q does not reach conflict state %d", s, conflicts[0].State)
	}
}

// Every unresolved conflict on every corpus grammar gets a validated
// counterexample.
func TestCorpusConflictExamples(t *testing.T) {
	for _, e := range grammars.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			g := grammars.MustLoad(e.Name)
			a := lr0.New(g, nil)
			tbl := lalrtable.Build(a, core.Compute(a).Sets())
			gen := NewGenerator(a)
			for _, c := range tbl.Conflicts {
				if c.Resolution != lalrtable.DefaultShift && c.Resolution != lalrtable.DefaultEarlyRule {
					continue
				}
				ex := gen.ForConflict(c)
				if ex == nil {
					t.Errorf("no example for %s", tbl.ConflictString(c))
					continue
				}
				if !simulate(t, a, tbl, ex.Prefix, ex.Terminal, c.State) {
					t.Errorf("example %q does not reach the conflict state for %s",
						ex.String(g), tbl.ConflictString(c))
				}
			}
		})
	}
}

func TestForStateStartAndReachability(t *testing.T) {
	a, _ := analyze(t, "%token A\n%%\ns : A ;\n")
	gen := NewGenerator(a)
	gen.Expand([]grammar.Sym{a.G.Start()})
	if gen.dist != nil {
		t.Error("shortest paths computed before the first ForState")
	}
	if got := gen.ForState(0); len(got) != 0 {
		t.Errorf("prefix for start state = %v, want empty", got)
	}
	// Every state of a reduced grammar is reachable.
	for q := range a.States {
		if gen.ForState(q) == nil {
			t.Errorf("state %d unreachable", q)
		}
	}
}

func TestShortestStringsAreShort(t *testing.T) {
	g := grammars.MustLoad("pascal")
	a := lr0.New(g, nil)
	gen := NewGenerator(a)
	// The shortest program must start with the PROGRAM keyword and stay
	// small.
	s := gen.shortest(g.Start())
	if len(s) == 0 || g.SymName(s[0]) != "PROGRAM" {
		t.Errorf("shortest program starts with %v", s)
	}
	if len(s) > 20 {
		t.Errorf("shortest pascal program suspiciously long: %d tokens", len(s))
	}
}

func TestExampleString(t *testing.T) {
	g := grammar.MustParse("t.y", "%token A B\n%%\ns : A B ;\n")
	ex := &Example{Prefix: []grammar.Sym{g.SymByName("A")}, Terminal: g.SymByName("B")}
	if got := ex.String(g); got != "A • B" {
		t.Errorf("String = %q", got)
	}
	if !strings.Contains(ex.String(g), "•") {
		t.Error("marker missing")
	}
}
