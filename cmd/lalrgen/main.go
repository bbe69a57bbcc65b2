// Command lalrgen is the parser-generator front end: it reads a grammar
// in the yacc-like format, computes look-ahead sets with a selectable
// method (DeRemer–Pennello by default), reports conflicts, and can dump
// the automaton, the look-ahead sets, the DeRemer–Pennello relations
// and the parse tables.
//
// Usage:
//
//	lalrgen [flags] grammar.y
//	lalrgen [flags] -corpus pascal
//
// Flags:
//
//	-method M     look-ahead method: dp (default), slr, prop, lr1
//	-states       dump the LR(0) states
//	-la           dump the look-ahead set of every reduction
//	-table        dump the ACTION/GOTO tables
//	-relations    dump DeRemer–Pennello relation statistics and edges
//	-conflicts    dump the full conflict report
//	-parse "a b"  parse a space-separated terminal sequence, print tree
//	-stats        print the nested phase-timing tree and cost counters
//	-trace-json F write the phase/counter trace as JSON to F ('-' for stdout)
//	-Werror       exit non-zero on unresolved conflicts beyond the %expect budget
//	-timeout D    abort the analysis after wall-clock duration D (e.g. 5s)
//	-max-states N abort past N LR(0)/LR(1) states
//	-keep-going   downgrade a -timeout/-max-states abort to a warning and exit 0
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"repro"
	"repro/internal/cex"
	"repro/internal/cliguard"
	"repro/internal/export"
	"repro/internal/gen"
	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/lalrtable"
	"repro/internal/lint"
	"repro/internal/runtime"
	"repro/internal/treecount"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lalrgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lalrgen", flag.ContinueOnError)
	var (
		methodName = fs.String("method", "dp", "look-ahead method: dp, slr, prop, lr1")
		corpus     = fs.String("corpus", "", "analyze the named built-in corpus grammar instead of a file")
		dumpStates = fs.Bool("states", false, "dump LR(0) states")
		dumpLA     = fs.Bool("la", false, "dump look-ahead sets")
		dumpTable  = fs.Bool("table", false, "dump ACTION/GOTO tables")
		dumpRel    = fs.Bool("relations", false, "dump DeRemer–Pennello relations")
		dumpConf   = fs.Bool("conflicts", false, "dump full conflict report")
		parseInput = fs.String("parse", "", "parse a space-separated terminal sequence")
		genOut     = fs.String("o", "", "write a standalone Go parser to this file")
		genPkg     = fs.String("pkg", "parser", "package name for -o")
		genPrefix  = fs.String("prefix", "", "identifier prefix for -o")
		dotOut     = fs.String("dot", "", "write the LR(0) automaton in Graphviz dot format to this file ('-' for stdout)")
		jsonOut    = fs.String("json", "", "write a machine-readable analysis report to this file ('-' for stdout)")
		probe      = fs.Int("probe", 0, "probe N random sentences for ambiguity (tree counting)")
		stats      = fs.Bool("stats", false, "print the nested phase-timing tree and cost counters")
		traceJSON  = fs.String("trace-json", "", "write the phase/counter trace as JSON to this file ('-' for stdout)")
		werror     = fs.Bool("Werror", false, "exit non-zero on unresolved conflicts beyond the %expect budget")
	)
	gf := cliguard.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	method, err := repro.ParseMethod(*methodName)
	if err != nil {
		return err
	}

	var g *repro.Grammar
	switch {
	case *corpus != "":
		g, err = grammars.Load(*corpus)
		if err != nil {
			return err
		}
	case fs.NArg() == 1:
		src, rerr := os.ReadFile(fs.Arg(0))
		if rerr != nil {
			return rerr
		}
		g, err = repro.LoadGrammar(fs.Arg(0), string(src))
		if err != nil {
			return err
		}
	default:
		names := make([]string, 0)
		for _, e := range grammars.All() {
			names = append(names, e.Name)
		}
		return fmt.Errorf("need a grammar file or -corpus name (available: %s)", strings.Join(names, ", "))
	}

	if useless := grammar.CheckUseful(g).Useless(g); len(useless) > 0 {
		fmt.Fprintf(out, "warning: useless symbols: %s\n", strings.Join(useless, ", "))
	}

	var rec *repro.Recorder
	if *stats || *traceJSON != "" {
		rec = repro.NewRecorder()
	}
	ctx, cancel := gf.Context()
	defer cancel()
	res, err := repro.AnalyzeContext(ctx, g, repro.Options{Method: method, Recorder: rec, Limits: gf.Limits()})
	if err != nil {
		if gf.KeepGoing && cliguard.Recoverable(err) {
			fmt.Fprintf(out, "warning: analysis of %s aborted: %v\n", g.Name(), err)
			return nil
		}
		return err
	}

	a := res.Automaton
	sr, rr := res.Tables.Unresolved()
	fmt.Fprintf(out, "grammar %s: %d terminals, %d nonterminals, %d productions\n",
		g.Name(), g.NumTerminals(), g.NumNonterminals(), len(g.Productions()))
	fmt.Fprintf(out, "method %s: %d LR(0) states, %d nonterminal transitions\n",
		method, len(a.States), len(a.NtTrans))
	fmt.Fprintf(out, "conflicts: %d shift/reduce, %d reduce/reduce (%d resolved by precedence)\n",
		sr, rr, len(res.Tables.Conflicts)-sr-rr)
	if expSR, expRR := g.Expect(); expSR >= 0 || expRR >= 0 {
		if expSR < 0 {
			expSR = 0
		}
		if expRR < 0 {
			expRR = 0
		}
		if sr != expSR || rr != expRR {
			fmt.Fprintf(out, "warning: %%expect %d/%d but found %d/%d conflicts\n", expSR, expRR, sr, rr)
		} else {
			fmt.Fprintf(out, "conflict counts match %s declarations\n", "%expect")
		}
	}
	if res.DP != nil {
		if res.DP.NotLRk() {
			fmt.Fprintln(out, "diagnosis: the reads relation is cyclic — the grammar is not LR(k) for any k")
		}
		st := res.DP.Stats()
		fmt.Fprintf(out, "relations: %d reads edges, %d includes edges, %d lookback edges\n",
			st.ReadsEdges, st.IncludesEdges, st.LookbackEdges)
	}

	if *dumpConf && len(res.Tables.Conflicts) > 0 {
		fmt.Fprintln(out, "\nconflict report:")
		fmt.Fprint(out, res.Tables.ConflictReport())
		cgen := cex.NewGenerator(a)
		printed := false
		for _, c := range res.Tables.Conflicts {
			if c.Resolution != lalrtable.DefaultShift && c.Resolution != lalrtable.DefaultEarlyRule {
				continue
			}
			if ex := cgen.ForConflict(c); ex != nil {
				if !printed {
					fmt.Fprintln(out, "\ncounterexamples:")
					printed = true
				}
				fmt.Fprintf(out, "state %d, token %s: %s\n", c.State, g.SymName(c.Terminal), ex.String(g))
			}
		}
	}
	if *dumpStates {
		fmt.Fprintln(out, "\nstates:")
		for _, s := range a.States {
			fmt.Fprint(out, a.StateString(s))
		}
	}
	if *dumpLA {
		fmt.Fprintln(out, "\nlook-ahead sets:")
		for q, s := range a.States {
			for i, pi := range s.Reductions {
				if pi == 0 {
					continue
				}
				fmt.Fprintf(out, "state %d: LA(%s) = %s\n", q,
					g.ProdString(pi), grammar.TerminalSetNames(g, res.Lookahead[q][i]))
			}
		}
	}
	if *dumpRel && res.DP != nil {
		fmt.Fprintln(out, "\nDeRemer–Pennello relations:")
		for i := range a.NtTrans {
			fmt.Fprintf(out, "%s: DR=%s Read=%s Follow=%s\n",
				res.DP.TransString(i),
				grammar.TerminalSetNames(g, res.DP.DR[i]),
				grammar.TerminalSetNames(g, res.DP.Read[i]),
				grammar.TerminalSetNames(g, res.DP.Follow[i]))
			for _, j := range res.DP.Reads[i] {
				fmt.Fprintf(out, "  reads %s\n", res.DP.TransString(int(j)))
			}
			for _, j := range res.DP.Includes[i] {
				fmt.Fprintf(out, "  includes %s\n", res.DP.TransString(int(j)))
			}
		}
	}
	if *dumpTable {
		fmt.Fprintln(out, "\nparse tables:")
		fmt.Fprint(out, res.Tables.String())
	}
	if *probe > 0 {
		if err := probeAmbiguity(out, a.An, *probe); err != nil {
			return err
		}
	}
	if *stats {
		fmt.Fprintln(out, "\nphase timings:")
		fmt.Fprint(out, rec.Tree())
	}
	if *traceJSON != "" {
		data, err := rec.JSON()
		if err != nil {
			return err
		}
		if *traceJSON == "-" {
			fmt.Fprintln(out, string(data))
		} else {
			if err := os.WriteFile(*traceJSON, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", *traceJSON)
		}
	}
	if *jsonOut != "" {
		data := export.AppendAnalysis(nil, 0, a, res.Lookahead, res.Tables, res.DP, method.String())
		if *jsonOut == "-" {
			fmt.Fprintln(out, string(data))
		} else {
			if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", *jsonOut)
		}
	}
	if *dotOut != "" {
		w := out
		var f *os.File
		if *dotOut != "-" {
			var err error
			f, err = os.Create(*dotOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := a.WriteDot(w); err != nil {
			return err
		}
		if f != nil {
			fmt.Fprintf(out, "wrote %s\n", *dotOut)
		}
	}
	if *genOut != "" {
		code, err := gen.Generate(res.Tables, gen.Options{Package: *genPkg, Prefix: *genPrefix})
		if err != nil {
			return err
		}
		if err := os.WriteFile(*genOut, code, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d bytes, package %s)\n", *genOut, len(code), *genPkg)
	}
	if *parseInput != "" {
		syms, err := symbolsOf(g, *parseInput)
		if err != nil {
			return err
		}
		p := repro.NewParser(res.Tables)
		tree, err := p.Parse(runtime.SymLexer(g, syms))
		if err != nil {
			return fmt.Errorf("parse: %w", err)
		}
		fmt.Fprintln(out, "\nparse tree:")
		fmt.Fprint(out, tree.Dump(g))
	}
	// Gate last, so every requested dump still appears before the
	// failing exit.  The policy (exact %expect budget or conflict-free)
	// is the lint engine's, not a local reimplementation.
	if *werror {
		if err := lint.ConflictGate(g, res.Tables); err != nil {
			return fmt.Errorf("-Werror: %w", err)
		}
	}
	return nil
}

// probeAmbiguity samples random sentences and counts their parse trees,
// reporting the first ambiguity witness found.  A conflict report says a
// grammar is not LALR(1); a witness proves it is not unambiguous at all.
func probeAmbiguity(out io.Writer, an *grammar.Analysis, n int) error {
	g := an.G
	c, err := treecount.New(an)
	if err != nil {
		fmt.Fprintf(out, "ambiguity probe: %v\n", err)
		return nil
	}
	sg, err := grammar.NewSentenceGenerator(g)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for i := 0; i < n; i++ {
		sent := sg.Generate(rng, 10)
		if len(sent) > 60 {
			continue
		}
		checked++
		trees, err := c.Count(sent)
		if err != nil {
			return err
		}
		if trees > 1 {
			var names []string
			for _, s := range sent {
				names = append(names, g.SymName(s))
			}
			fmt.Fprintf(out, "ambiguity probe: AMBIGUOUS — %q has %d parse trees (checked %d sentences)\n",
				strings.Join(names, " "), trees, checked)
			return nil
		}
	}
	fmt.Fprintf(out, "ambiguity probe: no witness in %d sampled sentences (not a proof of unambiguity)\n", checked)
	return nil
}

// symbolsOf resolves space-separated terminal names, accepting both the
// quoted ('+') and bare (+) spellings of literal terminals.
func symbolsOf(g *repro.Grammar, input string) ([]repro.Sym, error) {
	var syms []repro.Sym
	for _, f := range strings.Fields(input) {
		s := g.SymByName(f)
		if s == grammar.NoSym {
			s = g.SymByName("'" + f + "'")
		}
		if s == grammar.NoSym || !g.IsTerminal(s) {
			return nil, fmt.Errorf("unknown terminal %q", f)
		}
		syms = append(syms, s)
	}
	return syms, nil
}
