// Command lalrbench regenerates every table and figure of the
// reproduction (see EXPERIMENTS.md): grammar/machine statistics,
// relation sizes, per-method look-ahead computation cost, adequacy, and
// the scaling/ablation figures.  Timings are wall-clock medians over
// adaptive repetition; the paper's claims are about ratios and shapes,
// which is what the harness prints.
//
// Usage:
//
//	lalrbench            # all experiments
//	lalrbench -run III   # only Table III (-run takes an id or a table's numeral)
//	lalrbench -quick     # smaller scaling sweeps (for CI)
//	lalrbench file.y...  # Tables I, II and IV for these grammar files
//
// Observability flags:
//
//	-metrics-out F   write per-grammar machine-readable metrics JSON
//	                 (phase timings, cost-model counters, relation and
//	                 SCC statistics) to F instead of the text tables;
//	                 this is the format of the BENCH_*.json trajectory
//	-parallel N      collect the -metrics-out document with N concurrent
//	                 workers (0 = one per CPU).  Structural metrics and
//	                 counters are unaffected; wall-time fields are taken
//	                 under contention, so keep the default of 1 when the
//	                 timings themselves are the experiment
//	-cpuprofile F    write a CPU profile of the run to F
//	-memprofile F    write a heap profile at exit to F
//
// lalrbench measures the library only.  The served path (lalrd under
// load: cold, hot, lint and fleet replay) is measured by the separate
// lalrdbench module; see lalrdbench/README.md.
//
// Governance flags (the -metrics-out path and the pass behind Tables I,
// II and IV; the timing experiments run trusted corpus grammars):
//
//	-timeout D       abort the run after wall-clock duration D (e.g. 5s)
//	-max-states N    abort grammars past N LR(0)/LR(1) states
//	-keep-going      record aborted grammars (an "error" field in the
//	                 document, a warning line before the tables) instead
//	                 of failing the run
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bitset"
	"repro/internal/cache"
	"repro/internal/cliguard"
	"repro/internal/core"
	"repro/internal/digraph"
	"repro/internal/driver"
	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/guard"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
	"repro/internal/lr1"
	"repro/internal/obs"
	"repro/internal/packed"
	"repro/internal/pipeline"
	"repro/internal/prop"
	"repro/internal/report"
	"repro/internal/slr"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lalrbench:", err)
		os.Exit(1)
	}
}

// experiment is one table or figure.  Tables I, II and IV read the
// machines of one governed pass per grammar (stats); the others measure
// the corpus themselves (fn).
type experiment struct {
	id, doc string
	stats   func(ms []*machines) string
	fn      func(quick bool) string
}

var experiments = []experiment{
	{id: "Table-I", doc: "grammar and LR(0)/LR(1) machine statistics", stats: tableI},
	{id: "Table-II", doc: "DeRemer–Pennello relation statistics", stats: tableII},
	{id: "Table-III", doc: "look-ahead computation cost by method", fn: tableIII},
	{id: "Table-IV", doc: "adequacy by method (unresolved conflicts)", stats: tableIV},
	{id: "Table-V", doc: "parse-table compression (defaults + comb packing)", fn: tableV},
	{id: "Fig-scaling", doc: "cost growth with grammar size", fn: figScaling},
	{id: "Fig-digraph", doc: "Digraph vs naive iteration", fn: figDigraph},
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("lalrbench", flag.ContinueOnError)
	var (
		runFilter  = fs.String("run", "", "run only the experiment with this id, or the table with this numeral (IV for Table-IV)")
		quick      = fs.Bool("quick", false, "smaller scaling sweeps")
		metricsOut = fs.String("metrics-out", "", "write per-grammar metrics JSON to this file ('-' for stdout) instead of the text tables")
		parallel   = fs.Int("parallel", 1, "metrics-collection workers (0 = one per CPU); >1 perturbs the timing fields")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	gf := cliguard.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, ferr := os.Create(*memprofile)
		if ferr != nil {
			err = errors.Join(err, ferr)
			return
		}
		runtime.GC() // materialize the retained heap before writing
		err = errors.Join(err, pprof.WriteHeapProfile(f), f.Close())
	}()

	if *metricsOut != "" {
		if fs.NArg() > 0 {
			return errors.New("-metrics-out measures the corpus; it takes no grammar files")
		}
		return emitMetrics(*metricsOut, *quick, *parallel, gf)
	}

	// Grammar files select the stats tables over those files; without
	// them every experiment runs over the corpus.
	var gs []*grammar.Grammar
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		g, err := grammar.Parse(path, string(src))
		if err != nil {
			return err
		}
		gs = append(gs, g)
	}
	var selected []experiment
	needStats := false
	for _, e := range experiments {
		if !selects(*runFilter, e.id) || (fs.NArg() > 0 && e.stats == nil) {
			continue
		}
		selected = append(selected, e)
		needStats = needStats || e.stats != nil
	}
	if len(selected) == 0 {
		return fmt.Errorf("no experiment matches -run %q", *runFilter)
	}
	var ms []*machines
	if needStats {
		if gs == nil {
			for _, e := range grammars.All() {
				gs = append(gs, grammars.MustLoad(e.Name))
			}
		}
		if ms, err = statsPass(gs, gf, out); err != nil {
			return err
		}
	}
	for _, e := range selected {
		fmt.Fprintf(out, "== %s: %s ==\n\n", e.id, e.doc)
		if e.stats != nil {
			fmt.Fprintln(out, e.stats(ms))
		} else {
			fmt.Fprintln(out, e.fn(*quick))
		}
	}
	return nil
}

// selects reports whether -run filter picks the experiment id: the id
// itself or, for a table, its numeral.  The empty filter picks all.
func selects(filter, id string) bool {
	return filter == "" || filter == id || "Table-"+filter == id
}

// machines is one grammar's governed pass: the pipeline through its
// LALR(1) tables, the SLR(1) tables and the canonical LR(1) machine.
type machines struct {
	*pipeline.Result
	slr *lalrtable.Tables
	lr1 *lr1.Machine
}

// statsPass builds each grammar's machines under the governance flags,
// once for all the stats tables.  With -keep-going an aborted grammar
// is left out of the tables and the aborts become one warning line;
// without it the first abort fails the run.
func statsPass(gs []*grammar.Grammar, gf *cliguard.Flags, out io.Writer) ([]*machines, error) {
	ctx, cancel := gf.Context()
	defer cancel()
	policy := driver.FailFast
	if gf.KeepGoing {
		policy = driver.Collect
	}
	ms := make([]*machines, len(gs))
	err := driver.Run(ctx, len(gs), driver.Options{Workers: 1, Policy: policy},
		func(ctx context.Context, i int, _ *obs.Recorder) error {
			g := gs[i]
			bud := guard.New(ctx, gf.Limits(), nil)
			bud.SetOwner(g.Name())
			pr, err := pipeline.Build(g, pipeline.Tables, nil, bud)
			if err != nil {
				return err
			}
			slrT, err := lalrtable.BuildBudgeted(pr.Auto, slr.Compute(pr.Auto), nil, bud)
			if err != nil {
				return err
			}
			m, err := lr1.NewBudgeted(g, pr.An, bud)
			if err != nil {
				return err
			}
			ms[i] = &machines{Result: pr, slr: slrT, lr1: m}
			return nil
		})
	if err != nil {
		if !gf.KeepGoing {
			return nil, err
		}
		fmt.Fprintf(out, "warning: continuing past failures: %v\n", err)
	}
	kept := ms[:0]
	for _, m := range ms {
		if m != nil {
			kept = append(kept, m)
		}
	}
	return kept, nil
}

// measure runs f repeatedly until at least 40ms have elapsed (or 1000
// iterations) and returns the per-call duration.
func measure(f func()) time.Duration {
	return measureBudget(f, 40*time.Millisecond)
}

// measureBudget is measure with an explicit repetition budget, so the
// CI-quick metrics path can trade precision for speed.
func measureBudget(f func(), budget time.Duration) time.Duration {
	f() // warm-up
	var (
		total time.Duration
		n     int
	)
	for total < budget && n < 1000 {
		start := time.Now()
		f()
		total += time.Since(start)
		n++
	}
	return total / time.Duration(n)
}

func corpusAutomata() []*lr0.Automaton {
	var out []*lr0.Automaton
	for _, e := range grammars.All() {
		g := grammars.MustLoad(e.Name)
		out = append(out, lr0.New(g, nil))
	}
	return out
}

func tableI(ms []*machines) string {
	t := report.New("", "grammar", "terms", "nonterms", "prods",
		"LR0 states", "LR1 states", "state ratio", "nt-transitions")
	for _, m := range ms {
		g := m.Auto.G
		t.Row(g.Name(), g.NumTerminals(), g.NumNonterminals(), len(g.Productions()),
			len(m.Auto.States), len(m.lr1.States), float64(len(m.lr1.States))/float64(len(m.Auto.States)),
			len(m.Auto.NtTrans))
	}
	t.Note("LR(1) machines are consistently larger; the gap is what LALR avoids paying for")
	return t.String()
}

func tableII(ms []*machines) string {
	t := report.New("", "grammar", "nt-trans", "DR elems", "reads", "includes",
		"lookback", "inc SCCs", "largest SCC", "inc cyclic")
	for _, m := range ms {
		st := m.DP.Stats()
		t.Row(m.Auto.G.Name(), st.NtTransitions, st.DRTotal, st.ReadsEdges,
			st.IncludesEdges, st.LookbackEdges, st.IncludesSCCs, st.LargestIncSCC,
			st.IncludesCyclic)
	}
	t.Note("relation sizes are near-linear in nonterminal transitions — the basis of the cost claim")
	return t.String()
}

func tableIII(bool) string {
	t := report.New("", "grammar", "LR0 ns", "SLR ns", "DP ns", "DP-lazy ns", "prop ns", "LR1-merge ns",
		"DP/SLR", "prop/DP", "LR1/DP", "gen +SLR→+DP")
	var sumDP, sumSLR, sumProp, sumLR1, sumLR0 float64
	for _, a := range corpusAutomata() {
		a := a
		g := a.G
		// Cost of the shared LR(0) construction, the baseline every
		// generator pays before look-ahead computation.
		dLR0 := measure(func() { _ = lr0.New(g, nil) })
		// SLR must recompute FOLLOW each round to be comparable, so give
		// it a fresh Analysis per iteration.
		dSLR := measure(func() {
			aa := *a
			aa.An = grammar.Analyze(g)
			_ = slr.Compute(&aa)
		})
		dDP := measure(func() { _ = core.Compute(a) })
		dLazy := measure(func() { _ = core.ComputeLazy(a) })
		dProp := measure(func() { _, _ = prop.Compute(a) })
		dLR1 := measure(func() { _ = lr1.New(g, a.An).MergeLALR(a) })
		// The paper's framing: the whole-generator overhead of exact
		// LALR(1) over SLR(1), amortised against LR(0) construction.
		genOverhead := float64(dLR0+dDP) / float64(dLR0+dSLR)
		t.Row(g.Name(), dLR0.Nanoseconds(), dSLR.Nanoseconds(), dDP.Nanoseconds(),
			dLazy.Nanoseconds(), dProp.Nanoseconds(), dLR1.Nanoseconds(),
			float64(dDP)/float64(dSLR), float64(dProp)/float64(dDP),
			float64(dLR1)/float64(dDP), genOverhead)
		sumDP += float64(dDP)
		sumSLR += float64(dSLR)
		sumProp += float64(dProp)
		sumLR1 += float64(dLR1)
		sumLR0 += float64(dLR0)
	}
	t.Note("corpus totals: DP/SLR = %.2f, prop/DP = %.2f, LR1/DP = %.2f, generator(+DP)/generator(+SLR) = %.2f",
		sumDP/sumSLR, sumProp/sumDP, sumLR1/sumDP, (sumLR0+sumDP)/(sumLR0+sumSLR))
	t.Note("the paper's claim: exact LALR(1) at small cost over SLR in a whole generator, well under propagation and canonical LR(1)")
	t.Note("DP-lazy evaluates Follow only for inadequate states (bison's strategy); adequate-state reductions become defaults")
	return t.String()
}

func tableIV(ms []*machines) string {
	t := report.New("", "grammar", "LR0 inadequate states", "SLR sr/rr", "LALR sr/rr", "LR1 sr/rr", "SLR == LALR?")
	unresolvedSR := func(g *grammar.Grammar, term grammar.Sym, prod int) bool {
		return lalrtable.ResolveShiftReduce(g, term, prod) == lalrtable.DefaultShift
	}
	for _, m := range ms {
		a, g := m.Auto, m.Auto.G
		lsr, lrr := m.Tables.Unresolved()
		ssr, srr := m.slr.Unresolved()
		csr, crr := m.lr1.ResolvedConflictCounts(unresolvedSR)
		inad := 0
		for _, s := range a.States {
			if a.Inadequate(s) {
				inad++
			}
		}
		t.Row(g.Name(), inad, fmt.Sprintf("%d/%d", ssr, srr),
			fmt.Sprintf("%d/%d", lsr, lrr), fmt.Sprintf("%d/%d", csr, crr),
			ssr == lsr && srr == lrr)
	}
	t.Note("LR(1) entry counts can exceed LALR's on inadequate grammars: state splitting replicates the same conflict")
	t.Note("adequacy is monotone LR(0) ≤ SLR ≤ LALR ≤ LR(1); SLR suffices for most practical grammars")
	return t.String()
}

func tableV(bool) string {
	t := report.New("", "grammar", "states", "full cells", "packed cells", "ratio", "default-reduce states")
	for _, a := range corpusAutomata() {
		tbl := lalrtable.Build(a, core.Compute(a).Sets())
		p := packed.Pack(tbl)
		if err := p.Verify(); err != nil {
			return fmt.Sprintf("pack verification failed for %s: %v", a.G.Name(), err)
		}
		st := p.Stats()
		nDef := 0
		for _, d := range p.DefaultReduce {
			if d >= 0 {
				nDef++
			}
		}
		t.Row(a.G.Name(), st.States, st.FullCells, st.PackedCells, st.Ratio, nDef)
	}
	t.Note("the 1979-era framing: LALR tables fit in memory because of exactly this encoding")
	return t.String()
}

func figScaling(quick bool) string {
	sizes := []int{5, 10, 20, 40, 80}
	lr1Cap := 40
	if quick {
		sizes = []int{5, 10, 20}
	}
	t := report.New("expr-levels(n): look-ahead cost vs grammar size",
		"n", "LR0 states", "nt-trans", "DP ns", "prop ns", "LR1-merge ns", "prop/DP")
	for _, n := range sizes {
		g := grammars.ExprLevels(n)
		an := grammar.Analyze(g)
		a := lr0.New(g, an)
		dDP := measure(func() { _ = core.Compute(a) })
		dProp := measure(func() { _, _ = prop.Compute(a) })
		lr1Cell := any("-")
		if n <= lr1Cap {
			d := measure(func() { _ = lr1.New(g, an).MergeLALR(a) })
			lr1Cell = d.Nanoseconds()
		}
		t.Row(n, len(a.States), len(a.NtTrans), dDP.Nanoseconds(), dProp.Nanoseconds(),
			lr1Cell, float64(dProp)/float64(dDP))
	}
	t.Note("DP grows near-linearly with the machine; propagation and canonical LR(1) grow faster")

	t2 := report.New("\nnullable-chain(n): long reads chains (ε-heavy grammars)",
		"n", "nt-trans", "reads edges", "DP ns", "prop ns", "prop/DP")
	nullSizes := []int{8, 16, 32, 64}
	if quick {
		nullSizes = []int{8, 16}
	}
	for _, n := range nullSizes {
		g := grammars.NullableChain(n)
		a := lr0.New(g, nil)
		dDP := measure(func() { _ = core.Compute(a) })
		dProp := measure(func() { _, _ = prop.Compute(a) })
		t2.Row(n, len(a.NtTrans), core.Compute(a).Stats().ReadsEdges,
			dDP.Nanoseconds(), dProp.Nanoseconds(), float64(dProp)/float64(dDP))
	}
	t2.Note("nullable chains stress the reads relation; DP's single traversal absorbs them")
	return t.String() + t2.String()
}

func figDigraph(quick bool) string {
	sizes := []int{50, 200, 800, 3200}
	if quick {
		sizes = []int{50, 200}
	}
	t := report.New("unit-chain(n): Digraph vs naive fixpoint on the includes relation",
		"family", "n", "nt-trans", "Digraph ns", "naive ns", "naive/Digraph")
	for _, n := range sizes {
		for _, fam := range []struct {
			name string
			g    *grammar.Grammar
		}{
			{"aligned", grammars.UnitChain(n)},
			{"anti-aligned", grammars.UnitChainReversed(n)},
		} {
			a := lr0.New(fam.g, nil)
			dFast := measure(func() { _ = core.Compute(a) })
			dNaive := measure(func() { _ = core.ComputeNaive(a) })
			t.Row(fam.name, n, len(a.NtTrans), dFast.Nanoseconds(), dNaive.Nanoseconds(),
				float64(dNaive)/float64(dFast))
		}
	}
	t.Note("naive iteration depends on sweep order: favourable chains converge in 2 rounds,")
	t.Note("adversarial ones need n rounds (quadratic).  Digraph is one union per edge either way —")
	t.Note("the paper's point: its cost is order-independent and linear")
	return t.String()
}

// benchSchema versions the -metrics-out layout (the BENCH_*.json
// trajectory format).  The per-run observability fragments inside it
// carry their own obs.SchemaVersion.
const benchSchema = "repro-bench/1"

// benchMetrics is the top-level -metrics-out document.
type benchMetrics struct {
	Schema   string           `json:"schema"`
	Mode     string           `json:"mode"` // "quick" or "full"
	Grammars []grammarMetrics `json:"grammars"`
}

// grammarMetrics captures one corpus grammar's pipeline run: machine
// sizes, the paper's relation/SCC statistics, per-method wall times,
// and the instrumented phase tree with its cost-model counters.
type grammarMetrics struct {
	Grammar string `json:"grammar"`
	// Fingerprint is the content address of (grammar text, method) —
	// the same repro.Fingerprint lalrd keys its cache on — so metrics
	// documents from different runs (including failed, limit-governed
	// ones) are joinable by grammar content rather than by name.
	Fingerprint string `json:"fingerprint"`
	// Error is set (and every other field beyond Grammar and
	// Fingerprint left zero) when the grammar's pipeline run was
	// aborted by -timeout/-max-states and -keep-going kept the batch
	// alive.
	Error         string           `json:"error,omitempty"`
	Terminals     int              `json:"terminals"`
	Nonterminals  int              `json:"nonterminals"`
	Productions   int              `json:"productions"`
	LR0States     int              `json:"lr0_states"`
	NtTransitions int              `json:"nt_transitions"`
	Relations     relationMetrics  `json:"relations"`
	Digraph       digraphMetrics   `json:"digraph"`
	TimingsNs     map[string]int64 `json:"timings_ns"`
	Phases        []obs.SpanExport `json:"phases"`
	Counters      map[string]int64 `json:"counters"`
}

type relationMetrics struct {
	DRElements    int `json:"dr_elements"`
	ReadsEdges    int `json:"reads_edges"`
	IncludesEdges int `json:"includes_edges"`
	LookbackEdges int `json:"lookback_edges"`
}

type digraphMetrics struct {
	ReadsSCCs      int  `json:"reads_sccs"`
	IncludesSCCs   int  `json:"includes_sccs"`
	LargestIncSCC  int  `json:"largest_includes_scc"`
	ReadsCyclic    bool `json:"reads_cyclic"`
	IncludesCyclic bool `json:"includes_cyclic"`
}

// collectMetrics runs the instrumented pipeline once per corpus grammar
// and measures the per-method wall times.  workers > 1 fans the grammars
// over a bounded pool; the document's grammar order stays the corpus
// order regardless (each task writes its own slot).
//
// The pipeline runs under the governance flags: with -keep-going an
// aborted grammar contributes a stub entry carrying its error and the
// rest of the corpus completes; without it the first abort fails the
// whole collection.
func collectMetrics(quick bool, workers int, gf *cliguard.Flags) (benchMetrics, error) {
	budget := 40 * time.Millisecond
	mode := "full"
	if quick {
		budget = 8 * time.Millisecond
		mode = "quick"
	}
	entries := grammars.All()
	doc := benchMetrics{Schema: benchSchema, Mode: mode, Grammars: make([]grammarMetrics, len(entries))}
	ctx, cancel := gf.Context()
	defer cancel()
	policy := driver.FailFast
	if gf.KeepGoing {
		policy = driver.Collect
	}
	err := driver.Run(ctx, len(entries), driver.Options{Workers: workers, Policy: policy}, func(ctx context.Context, gi int, _ *obs.Recorder) error {
		e := entries[gi]
		g := grammars.MustLoad(e.Name)
		// The document measures the DP pipeline, so the fingerprint is
		// keyed on the "dp" method — matching what a lalrd /v1/analyze
		// of the same source would compute.
		fp := cache.Fingerprint(e.Src, "dp")

		// One instrumented end-to-end run: LR(0) → DP → tables → packing.
		rec := obs.New()
		bud := guard.New(ctx, gf.Limits(), rec)
		bud.SetOwner(g.Name())
		pr, err := pipeline.Build(g, pipeline.Tables, rec, bud)
		if err != nil {
			doc.Grammars[gi] = grammarMetrics{Grammar: g.Name(), Fingerprint: fp, Error: err.Error()}
			return err
		}
		a, dp := pr.Auto, pr.DP
		packed.PackObserved(pr.Tables, rec)
		export := rec.ExportData()

		st := dp.Stats()
		gm := grammarMetrics{
			Grammar:       g.Name(),
			Fingerprint:   fp,
			Terminals:     g.NumTerminals(),
			Nonterminals:  g.NumNonterminals(),
			Productions:   len(g.Productions()),
			LR0States:     len(a.States),
			NtTransitions: len(a.NtTrans),
			Relations: relationMetrics{
				DRElements:    st.DRTotal,
				ReadsEdges:    st.ReadsEdges,
				IncludesEdges: st.IncludesEdges,
				LookbackEdges: st.LookbackEdges,
			},
			Digraph: digraphMetrics{
				ReadsSCCs:      st.ReadsSCCs,
				IncludesSCCs:   st.IncludesSCCs,
				LargestIncSCC:  st.LargestIncSCC,
				ReadsCyclic:    st.ReadsCyclic,
				IncludesCyclic: st.IncludesCyclic,
			},
			TimingsNs: map[string]int64{},
			Phases:    export.Phases,
			Counters:  export.Counters,
		}

		gm.TimingsNs["lr0"] = measureBudget(func() { _ = lr0.New(g, nil) }, budget).Nanoseconds()
		gm.TimingsNs["dp"] = measureBudget(func() { _ = core.Compute(a) }, budget).Nanoseconds()
		gm.TimingsNs["dp_lazy"] = measureBudget(func() { _ = core.ComputeLazy(a) }, budget).Nanoseconds()
		gm.TimingsNs["slr"] = measureBudget(func() {
			aa := *a
			aa.An = grammar.Analyze(g)
			_ = slr.Compute(&aa)
		}, budget).Nanoseconds()
		gm.TimingsNs["prop"] = measureBudget(func() { _, _ = prop.Compute(a) }, budget).Nanoseconds()

		// Isolated Digraph solve phases.  Each iteration re-seeds a fresh
		// arena from the already-built relations, so the timing is the
		// solve plus one arena copy, without the relation construction
		// that the dp timing also pays for.
		n := len(a.NtTrans)
		seed := func(src []bitset.Set) []bitset.Set {
			out := bitset.NewArena(len(src), g.NumTerminals()).Sets()
			for i := range src {
				src[i].CopyInto(&out[i])
			}
			return out
		}
		solve := func(adj [][]int32, src []bitset.Set) func() {
			return func() { _ = digraph.Run(n, adjRel(adj), seed(src)) }
		}
		gm.TimingsNs["solve_reads"] = measureBudget(solve(dp.Reads, dp.DR), budget).Nanoseconds()
		gm.TimingsNs["solve_includes"] = measureBudget(solve(dp.Includes, dp.Read), budget).Nanoseconds()

		doc.Grammars[gi] = gm
		return nil
	})
	if err != nil && gf.KeepGoing {
		// Every failure is already recorded in its grammar's Error
		// field; the document itself is the keep-going report.
		fmt.Fprintf(os.Stderr, "lalrbench: continuing past failures: %v\n", err)
		err = nil
	}
	return doc, err
}

// emitMetrics writes the metrics document as indented JSON to path
// ('-' for stdout).
func emitMetrics(path string, quick bool, workers int, gf *cliguard.Flags) error {
	doc, err := collectMetrics(quick, workers, gf)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "lalrbench: wrote %s (%d grammars)\n", path, len(doc.Grammars))
	return nil
}

// adjRel adapts CSR adjacency rows to the digraph.Succ callback form.
func adjRel(adj [][]int32) digraph.Succ {
	return func(x int, yield func(int)) {
		for _, y := range adj[x] {
			yield(int(y))
		}
	}
}
