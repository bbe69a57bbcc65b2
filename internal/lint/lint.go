// Package lint is a pass-based static-analysis framework over a
// grammar, its LR(0) automaton and the DeRemer–Pennello relations,
// modeled on go/analysis: each Analyzer declares a name, the facts it
// needs (a pipeline stage: none < analysis < LR(0) < DP < tables) and
// the diagnostic codes it can emit; the driver builds the pipeline once
// per grammar, only through the last stage an enabled analyzer needs,
// runs the enabled analyzers in order and collects Diagnostics with
// stable codes and symbol/state/production loci.
//
// The paper's relations double as the diagnosis engine: a nontrivial
// reads cycle proves the grammar is not LR(k) for any k (GL020), and
// includes chains plus lookback witnesses explain exactly why a
// conflict's look-ahead token is where it is (GL030/GL031).  The
// remaining passes cover the classic grammar hygiene checks: useless
// symbols, unused tokens, derivation cycles, unit chains and left
// recursion.  See the Rules table for the full code inventory.
package lint

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/grammar"
	"repro/internal/guard"
	"repro/internal/lalrtable"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Severity orders diagnostics by weight.  Info diagnostics are
// inventory (left recursion, unit chains); Warnings are actionable
// smells (useless symbols, unexpected conflicts); Errors mean the
// grammar is broken for LR parsing (not LR(k), derivation cycles,
// unproductive start).
type Severity uint8

// Severity levels, in increasing weight.
const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", uint8(s))
	}
}

// SARIFLevel maps the severity onto SARIF 2.1.0 result levels.
func (s Severity) SARIFLevel() string {
	switch s {
	case Info:
		return "note"
	case Warning:
		return "warning"
	default:
		return "error"
	}
}

// ParseSeverity converts a CLI spelling ("info", "warning", "error")
// into a Severity.
func ParseSeverity(name string) (Severity, error) {
	switch name {
	case "info", "note":
		return Info, nil
	case "warning", "warn":
		return Warning, nil
	case "error":
		return Error, nil
	default:
		return 0, fmt.Errorf("unknown severity %q (want info, warning or error)", name)
	}
}

// Code is a stable diagnostic identifier ("GL001").  Codes are
// append-only: a code, once shipped, keeps its meaning forever, so
// suppressions and CI gates can key on them.
type Code string

// The diagnostic code inventory.
const (
	CodeUnproductive    Code = "GL001" // nonterminal derives no terminal string
	CodeUnreachable     Code = "GL002" // symbol unreachable from the start symbol
	CodeUnusedToken     Code = "GL003" // terminal declared but used in no production
	CodeDerivationCycle Code = "GL010" // A ⇒+ A: the grammar is ambiguous
	CodeLeftRecursion   Code = "GL011" // left-recursive nonterminal (inventory)
	CodeUnitChain       Code = "GL012" // chain of unit productions (inventory)
	CodeReadsCycle      Code = "GL020" // nontrivial reads cycle: not LR(k) for any k
	CodeIncludesCycle   Code = "GL021" // nontrivial includes cycle (inventory)
	CodeShiftReduce     Code = "GL030" // unresolved shift/reduce conflict
	CodeReduceReduce    Code = "GL031" // unresolved reduce/reduce conflict
	CodeExpectMismatch  Code = "GL032" // conflict counts differ from the declared budget
	CodeAmbiguous       Code = "GL040" // proven ambiguous: witness confirmed by both oracles
	CodeNotAmbiguous    Code = "GL041" // LALR(1) inadequacy only: unambiguous within the explored bound
	CodeAmbigUndecided  Code = "GL042" // ambiguity walk exhausted its budget undecided
)

// RuleInfo documents one diagnostic code for writers (SARIF rules
// array, -list output) and DESIGN.md.
type RuleInfo struct {
	Code    Code
	Name    string
	Summary string
	// Default is the severity the code is emitted at in the common
	// case; individual diagnostics may deviate (conflicts within the
	// declared %expect budget downgrade to Info, an unproductive start
	// symbol upgrades to Error).
	Default Severity
}

// Rules lists every diagnostic code in code order.
var Rules = []RuleInfo{
	{CodeUnproductive, "unproductive-nonterminal", "nonterminal derives no terminal string", Warning},
	{CodeUnreachable, "unreachable-symbol", "symbol is unreachable from the start symbol", Warning},
	{CodeUnusedToken, "unused-token", "terminal is declared but appears in no production", Warning},
	{CodeDerivationCycle, "derivation-cycle", "nonterminal derives itself: the grammar is ambiguous", Error},
	{CodeLeftRecursion, "left-recursion", "nonterminal is left-recursive", Info},
	{CodeUnitChain, "unit-chain", "chain of unit productions", Info},
	{CodeReadsCycle, "reads-cycle", "nontrivial reads cycle: the grammar is not LR(k) for any k", Error},
	{CodeIncludesCycle, "includes-cycle", "nontrivial includes cycle", Info},
	{CodeShiftReduce, "shift-reduce-conflict", "unresolved shift/reduce conflict", Warning},
	{CodeReduceReduce, "reduce-reduce-conflict", "unresolved reduce/reduce conflict", Warning},
	{CodeExpectMismatch, "expect-mismatch", "conflict counts differ from the declared budget", Warning},
	{CodeAmbiguous, "proven-ambiguous", "conflict witnesses a genuine ambiguity: a sentence with two derivations, confirmed by both oracles", Warning},
	{CodeNotAmbiguous, "lalr-inadequacy-only", "conflict is an LALR(1) inadequacy, not an ambiguity, within the explored bound", Info},
	{CodeAmbigUndecided, "ambiguity-undecided", "ambiguity walk stopped at a bound or budget before reaching a verdict", Warning},
}

// RuleIndex returns the position of code in Rules, or -1.
func RuleIndex(code Code) int {
	for i, r := range Rules {
		if r.Code == code {
			return i
		}
	}
	return -1
}

// Diagnostic is one finding.  The locus fields use sentinels for
// absence: Sym is grammar.NoSym, State and Prod are -1.
type Diagnostic struct {
	Code     Code
	Severity Severity
	Pass     string // name of the analyzer that emitted it
	Message  string
	Sym      grammar.Sym // symbol locus, or grammar.NoSym
	State    int         // LR(0) state locus, or -1
	Prod     int         // production locus, or -1
	// Related holds supporting evidence: counterexample inputs,
	// includes-chain explanations, cycle paths.
	Related []string
	// Witness is a concrete sentence proving the finding (GL040's
	// ambiguous sentence), space-separated terminal names; empty when
	// the diagnostic carries no sentence-level evidence.  Writers
	// surface it structurally: a "witness" field in JSON, a region
	// snippet in SARIF.
	Witness string
}

// NewDiag returns a Diagnostic with no locus (Sym = NoSym, State and
// Prod = -1); chain AtSym/AtState/AtProd to attach one.
func NewDiag(code Code, sev Severity, format string, args ...any) Diagnostic {
	return Diagnostic{
		Code:     code,
		Severity: sev,
		Message:  fmt.Sprintf(format, args...),
		Sym:      grammar.NoSym,
		State:    -1,
		Prod:     -1,
	}
}

// AtSym attaches a symbol locus.
func (d Diagnostic) AtSym(s grammar.Sym) Diagnostic { d.Sym = s; return d }

// AtState attaches an LR(0) state locus.
func (d Diagnostic) AtState(q int) Diagnostic { d.State = q; return d }

// AtProd attaches a production locus.
func (d Diagnostic) AtProd(p int) Diagnostic { d.Prod = p; return d }

// With appends a related-information line.
func (d Diagnostic) With(format string, args ...any) Diagnostic {
	d.Related = append(d.Related, fmt.Sprintf(format, args...))
	return d
}

// WithWitness attaches a witness sentence.
func (d Diagnostic) WithWitness(sentence string) Diagnostic {
	d.Witness = sentence
	return d
}

// Pass is the per-run context handed to an Analyzer: the grammar plus
// the pipeline stages built for the run, which include every stage the
// analyzer declared in Needs (later stages may be nil).
type Pass struct {
	Analyzer *Analyzer
	G        *grammar.Grammar
	*pipeline.Result
	// BudgetSR / BudgetRR are the resolved expected-conflict counts
	// (Options.Budget, else the grammar's %expect declarations); -1
	// means no budget was declared.
	BudgetSR, BudgetRR int
	// Rec and Bud are the run's recorder and resource budget, for
	// passes that spawn bounded sub-searches (the ambiguity walk).
	Rec *obs.Recorder
	Bud *guard.Budget
	// Ctx is the run's context (nil means background); Parallelism is
	// the worker count for passes that fan out per conflict (0 = 1).
	Ctx         context.Context
	Parallelism int
	// AmbigMaxLen / AmbigMaxPairs override the ambiguity walk's bounds
	// (0 = package defaults).
	AmbigMaxLen, AmbigMaxPairs int

	diags *[]Diagnostic
}

// Report records a diagnostic, stamping it with the analyzer's name.
func (p *Pass) Report(d Diagnostic) {
	d.Pass = p.Analyzer.Name
	*p.diags = append(*p.diags, d)
}

// Analyzer is one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass for -enable/-disable and the Pass field
	// of its diagnostics.
	Name string
	// Doc is a one-line description.
	Doc string
	// Needs is the last pipeline stage the pass reads (pipeline.None
	// for passes that read only the grammar).
	Needs pipeline.Stage
	// Codes lists the diagnostic codes the pass can emit.
	Codes []Code
	// Run inspects the pass context and reports diagnostics.  Run must
	// be deterministic: same grammar, same diagnostics in the same
	// order.
	Run func(*Pass)
}

// Analyzers lists every registered pass in execution order.  The order
// is fixed (cheap structural passes first, relation- and table-driven
// passes last) so diagnostic output is deterministic.
var Analyzers = []*Analyzer{
	uselessAnalyzer,
	unusedTokensAnalyzer,
	nullableCyclesAnalyzer,
	leftRecursionAnalyzer,
	unitChainsAnalyzer,
	readsCyclesAnalyzer,
	includesCyclesAnalyzer,
	conflictsAnalyzer,
	ambiguityAnalyzer,
}

// Lookup returns the analyzer with the given name, or nil.
func Lookup(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Budget is an expected-conflict budget: the corpus registry's pinned
// counts, or a CLI override.  It plays the role of %expect/%expect-rr
// when the grammar text declares none.
type Budget struct {
	SR, RR int
}

// Options configure Run.  The zero value runs every pass, keeps every
// severity and takes the conflict budget from the grammar's %expect
// declarations.
type Options struct {
	// Enable, when non-empty, restricts the run to the named passes.
	Enable []string
	// Disable removes the named passes (applied after Enable).
	Disable []string
	// MinSeverity drops diagnostics below this severity from the
	// report.  The zero value (Info) keeps everything.
	MinSeverity Severity
	// Werror promotes Warning diagnostics to Error (before MinSeverity
	// filtering, so -Werror -severity=error reports exactly the
	// build-breaking set).
	Werror bool
	// Budget, when non-nil, overrides the grammar's %expect/%expect-rr
	// declarations as the expected-conflict budget: conflicts matching
	// the budget downgrade to Info.
	Budget *Budget
	// File is the source filename used in report output (SARIF artifact
	// URI, text prefixes); defaults to the grammar name + ".y".
	File string
	// Recorder, when non-nil, receives the pipeline's stage spans under
	// lint-facts and a span per executed pass, plus
	// lint_passes/lint_diagnostics counters.
	Recorder *obs.Recorder
	// Context, when non-nil, cancels fact computation at the next
	// checkpoint; Run then returns an error satisfying
	// errors.Is(err, guard.ErrCanceled).
	Context context.Context
	// Limits bound the resources fact computation may consume (LR(0)
	// states, relation edges, table entries).  The zero value is
	// unlimited.
	Limits guard.Limits
	// Parallelism is the worker count for the per-conflict ambiguity
	// fan-out (0 or 1 = serial).  Reports are byte-identical at any
	// parallelism: verdicts land positionally and are emitted in
	// conflict order.
	Parallelism int
	// AmbigMaxLen bounds the witness-extension length the ambiguity
	// walk explores beyond each conflict's look-ahead; AmbigMaxPairs
	// bounds its stack-pair configurations.  Zero selects the
	// internal/ambig defaults.  Both are part of lalrd's cache key.
	AmbigMaxLen   int
	AmbigMaxPairs int
}

// Report is the outcome of linting one grammar.
type Report struct {
	Grammar string
	File    string
	// Passes names the analyzers that ran, in execution order.
	Passes []string
	// Diagnostics, in pass execution order then discovery order —
	// deterministic for a given grammar and options.
	Diagnostics []Diagnostic
}

// CountBySeverity returns how many diagnostics the report holds at
// each severity.
func (r *Report) CountBySeverity() (info, warning, errs int) {
	for _, d := range r.Diagnostics {
		switch d.Severity {
		case Info:
			info++
		case Warning:
			warning++
		default:
			errs++
		}
	}
	return
}

// HasErrors reports whether any diagnostic is at Error severity.
func (r *Report) HasErrors() bool {
	_, _, e := r.CountBySeverity()
	return e > 0
}

// Run lints g: it resolves the enabled pass set, builds the pipeline
// through the last stage they need, executes the passes in order and
// returns the filtered report.  Run fails on unknown pass names in
// Enable/Disable and on budget violations (cancellation, resource
// limits) while building; lint findings are diagnostics, not errors.
func Run(g *grammar.Grammar, opts Options) (rep *Report, err error) {
	if g == nil {
		return nil, fmt.Errorf("lint: nil grammar")
	}
	passes, err := selectPasses(opts.Enable, opts.Disable)
	if err != nil {
		return nil, err
	}
	rec := opts.Recorder
	root := rec.Start("lint")
	defer root.End()
	// A panicking analyzer or fact pass must not take down the whole
	// process (grammarlint runs untrusted corpora): convert to a typed
	// internal error carrying the grammar name and stack.
	defer func() {
		if v := recover(); v != nil {
			rep, err = nil, guard.NewInternal(g.Name(), v)
		}
	}()
	bud := guard.New(opts.Context, opts.Limits, rec)
	bud.SetOwner(g.Name())

	var needs pipeline.Stage
	for _, a := range passes {
		needs = max(needs, a.Needs)
	}

	pass := &Pass{
		G: g, Rec: rec, Bud: bud, Ctx: opts.Context,
		Parallelism:   opts.Parallelism,
		AmbigMaxLen:   opts.AmbigMaxLen,
		AmbigMaxPairs: opts.AmbigMaxPairs,
	}
	pass.BudgetSR, pass.BudgetRR = g.Expect()
	if opts.Budget != nil {
		pass.BudgetSR, pass.BudgetRR = opts.Budget.SR, opts.Budget.RR
	}

	sp := rec.Start("lint-facts")
	pass.Result, err = pipeline.Build(g, needs, rec, bud)
	sp.End()
	if err != nil {
		return nil, err
	}

	rep = &Report{Grammar: g.Name(), File: opts.File}
	if rep.File == "" {
		rep.File = g.Name() + ".y"
	}
	var diags []Diagnostic
	pass.diags = &diags
	for _, a := range passes {
		sp := rec.Start("lint-pass-" + a.Name)
		pass.Analyzer = a
		a.Run(pass)
		sp.End()
		rep.Passes = append(rep.Passes, a.Name)
	}
	rec.Add(obs.CLintPasses, int64(len(passes)))
	rec.Add(obs.CLintDiagnostics, int64(len(diags)))

	for _, d := range diags {
		if opts.Werror && d.Severity == Warning {
			d.Severity = Error
		}
		if d.Severity < opts.MinSeverity {
			continue
		}
		rep.Diagnostics = append(rep.Diagnostics, d)
	}
	return rep, nil
}

// selectPasses resolves -enable/-disable name lists against the
// registry, preserving registration order.
func selectPasses(enable, disable []string) ([]*Analyzer, error) {
	for _, name := range append(append([]string{}, enable...), disable...) {
		if Lookup(name) == nil {
			return nil, fmt.Errorf("lint: unknown pass %q (have %s)", name, strings.Join(PassNames(), ", "))
		}
	}
	inEnable := func(name string) bool {
		if len(enable) == 0 {
			return true
		}
		for _, e := range enable {
			if e == name {
				return true
			}
		}
		return false
	}
	inDisable := func(name string) bool {
		for _, d := range disable {
			if d == name {
				return true
			}
		}
		return false
	}
	var out []*Analyzer
	for _, a := range Analyzers {
		if inEnable(a.Name) && !inDisable(a.Name) {
			out = append(out, a)
		}
	}
	return out, nil
}

// PassNames returns the registered pass names in execution order.
func PassNames() []string {
	out := make([]string, len(Analyzers))
	for i, a := range Analyzers {
		out[i] = a.Name
	}
	return out
}

// ConflictGate applies the conflict severity rules to already-built
// tables with -Werror semantics: it returns a non-nil error when the
// tables hold unresolved conflicts beyond the grammar's declared
// %expect budget (or any mismatch with a declared budget).  lalrgen
// -Werror gates on this, sharing the lint machinery instead of
// duplicating the policy.
func ConflictGate(g *grammar.Grammar, t *lalrtable.Tables) error {
	sr, rr := t.Unresolved()
	expSR, expRR := g.Expect()
	if budgetMatches(expSR, expRR, sr, rr) {
		return nil
	}
	if sr == 0 && rr == 0 {
		return fmt.Errorf("conflict counts differ from %%expect declarations: declared %d/%d, found 0/0",
			maxInt(expSR, 0), maxInt(expRR, 0))
	}
	return fmt.Errorf("%d shift/reduce, %d reduce/reduce unresolved conflicts", sr, rr)
}

// budgetMatches reports whether the actual conflict counts are exactly
// the declared budget.  With no budget declared (both -1) only a
// conflict-free grammar matches.
func budgetMatches(expSR, expRR, sr, rr int) bool {
	if expSR < 0 && expRR < 0 {
		return sr == 0 && rr == 0
	}
	return sr == maxInt(expSR, 0) && rr == maxInt(expRR, 0)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
