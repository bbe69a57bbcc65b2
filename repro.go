// Package repro is a LALR(1) parser generator built around the
// DeRemer–Pennello look-ahead algorithm ("Efficient computation of
// LALR(1) look-ahead sets", SIGPLAN '79 / TOPLAS 1982), together with
// the baseline methods the paper compares against: SLR(1), yacc-style
// look-ahead propagation, and canonical LR(1) (with LALR-by-merging).
//
// The typical flow:
//
//	g, err := repro.LoadGrammar("calc.y", src)       // yacc-like text
//	res, err := repro.Analyze(g, repro.Options{})    // DeRemer–Pennello
//	if !res.Tables.Adequate() { ... res.Tables.ConflictReport() ... }
//	p := repro.NewParser(res.Tables)
//	tree, err := p.Parse(lexer)
//
// The underlying machinery lives in internal packages; this package
// re-exports the stable surface.
package repro

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/cache"
	"repro/internal/cex"
	"repro/internal/core"
	"repro/internal/glr"
	"repro/internal/grammar"
	"repro/internal/guard"
	"repro/internal/lalrtable"
	"repro/internal/lint"
	"repro/internal/lr0"
	"repro/internal/lr1"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/prop"
	"repro/internal/runtime"
	"repro/internal/slr"
)

// Re-exported types.  The aliases are the public names; see the
// internal packages for full documentation of each.
type (
	// Grammar is an immutable, augmented context-free grammar.
	Grammar = grammar.Grammar
	// Sym identifies a grammar symbol.
	Sym = grammar.Sym
	// Production is a single rewriting rule.
	Production = grammar.Production
	// Tables is a complete ACTION/GOTO parse table with conflict log.
	Tables = lalrtable.Tables
	// Conflict is one conflicted parse-table entry.
	Conflict = lalrtable.Conflict
	// Parser executes parse tables against a token stream.
	Parser = runtime.Parser
	// Token is one lexeme.
	Token = runtime.Token
	// Lexer supplies tokens to a Parser.
	Lexer = runtime.Lexer
	// Node is a parse-tree node.
	Node = runtime.Node
	// SyntaxError reports a parse failure with expected terminals.
	SyntaxError = runtime.SyntaxError
)

// EOF is the end-of-input terminal, present in every grammar.
const EOF = grammar.EOF

// Method selects the look-ahead computation.
type Method int

// Look-ahead methods, in increasing cost order (the paper's Table III).
const (
	// MethodDeRemerPennello computes exact LALR(1) look-ahead via the
	// reads/includes/lookback relations and the Digraph traversal — the
	// paper's contribution and the default.
	MethodDeRemerPennello Method = iota
	// MethodSLR uses FOLLOW sets (SLR(1)): cheapest, may report
	// conflicts on grammars that are LALR(1) but not SLR(1).
	MethodSLR
	// MethodPropagation computes LALR(1) by spontaneous generation and
	// propagation (yacc's historical technique).
	MethodPropagation
	// MethodCanonicalMerge builds the canonical LR(1) collection and
	// merges states by core: exact but far more expensive.
	MethodCanonicalMerge
)

func (m Method) String() string {
	switch m {
	case MethodDeRemerPennello:
		return "deremer-pennello"
	case MethodSLR:
		return "slr"
	case MethodPropagation:
		return "propagation"
	case MethodCanonicalMerge:
		return "canonical-merge"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod converts a name as accepted by the CLI tools
// ("dp", "slr", "prop", "lr1", and long forms) into a Method.
func ParseMethod(name string) (Method, error) {
	switch name {
	case "dp", "deremer-pennello", "lalr":
		return MethodDeRemerPennello, nil
	case "slr":
		return MethodSLR, nil
	case "prop", "propagation", "yacc":
		return MethodPropagation, nil
	case "lr1", "canonical", "canonical-merge":
		return MethodCanonicalMerge, nil
	default:
		return 0, fmt.Errorf("unknown method %q (want dp, slr, prop or lr1)", name)
	}
}

// Recorder collects phase timings and cost-model counters across the
// pipeline; see package repro/internal/obs.  A nil Recorder disables
// all recording at no cost.
type Recorder = obs.Recorder

// NewRecorder returns an empty Recorder, to pass in Options.Recorder
// and read back with its Tree, JSON and Snapshot sinks afterwards.
func NewRecorder() *Recorder { return obs.New() }

// Resource governance.  Analysis of untrusted grammars can explode —
// canonical LR(1) state counts grow exponentially on adversarial
// inputs — so Analyze accepts a context and hard resource limits, and
// converts violations (and escaped panics) into a small typed error
// taxonomy; see package repro/internal/guard.
type (
	// Limits are hard per-grammar resource ceilings (states, table
	// entries, relation edges, wall-clock deadline).  The zero value is
	// unlimited.
	Limits = guard.Limits
	// LimitError reports which resource crossed which ceiling in which
	// phase; retrieve with errors.As, or match the ErrLimit sentinel
	// with errors.Is.
	LimitError = guard.ErrLimitExceeded
	// InternalError is a panic converted to an error at a containment
	// boundary (Analyze, Lint, AnalyzeAll), carrying the grammar name
	// and the recovered stack.
	InternalError = guard.ErrInternal
)

// Sentinel errors for resource governance, matched with errors.Is.
var (
	// ErrCanceled matches every cancellation, whether from a done
	// context or a passed deadline.
	ErrCanceled = guard.ErrCanceled
	// ErrLimit matches every *LimitError regardless of resource.
	ErrLimit = guard.ErrLimit
)

// Options configure Analyze.
type Options struct {
	// Method selects the look-ahead computation; the zero value is
	// MethodDeRemerPennello.
	Method Method
	// Recorder, when non-nil, receives per-phase spans and cost-model
	// counters for the whole Analyze pipeline.
	Recorder *Recorder
	// Context, when non-nil, cancels the analysis at the next hot-loop
	// checkpoint; Analyze then returns an error satisfying
	// errors.Is(err, ErrCanceled).
	Context context.Context
	// Limits bound the resources the analysis may consume.  The zero
	// value is unlimited; a violation yields a *LimitError.
	Limits Limits
}

// Result is the outcome of Analyze.
type Result struct {
	Grammar   *Grammar
	Method    Method
	Automaton *lr0.Automaton
	// Tables are the parse tables after precedence resolution.
	Tables *Tables
	// Lookahead holds the raw sets: Lookahead[q][i] is the look-ahead
	// for Automaton.States[q].Reductions[i].
	Lookahead [][]bitset.Set
	// DP holds the DeRemer–Pennello relations (DR, reads, includes,
	// lookback, Read, Follow) when Method is MethodDeRemerPennello,
	// else nil.
	DP *core.Result
}

// LoadGrammar parses a grammar in the yacc-like format documented on
// grammar.Parse.  filename is used in error messages only.
func LoadGrammar(filename, src string) (*Grammar, error) {
	return grammar.Parse(filename, src)
}

// Fingerprint returns the canonical content address of an analysis: a
// hex SHA-256 over a domain-separated encoding of the grammar text and
// opts.Method.  Analyze is a pure function of exactly those inputs, so
// equal fingerprints mean byte-identical exported reports — the keying
// contract of the lalrd response cache, and the join key between
// lalrbench metrics documents (failed runs record the fingerprint next
// to their error, successful runs next to their measurements).
//
// Execution-only options — Recorder, Context, Limits — do not change
// what an analysis computes, only whether it is allowed to finish, and
// are deliberately excluded from the address.
func Fingerprint(src string, opts Options) string {
	return cache.Fingerprint(src, opts.Method.String())
}

// Analyze builds the LR(0) automaton, computes look-ahead sets with the
// selected method and constructs parse tables.
//
// The analysis is governed by Options.Context and Options.Limits: a
// done context or a crossed resource ceiling aborts at the next
// checkpoint with an error matching ErrCanceled or ErrLimit.  A panic
// escaping any pipeline stage is contained and returned as an
// *InternalError instead of crashing the caller.
func Analyze(g *Grammar, opts Options) (res *Result, err error) {
	if g == nil {
		return nil, fmt.Errorf("repro: nil grammar")
	}
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, guard.NewInternal(g.Name(), v)
		}
	}()
	rec := opts.Recorder
	root := rec.Start("analyze")
	defer root.End()
	bud := guard.New(opts.Context, opts.Limits, rec)
	bud.SetOwner(g.Name())
	upto := pipeline.LR0
	if opts.Method == MethodDeRemerPennello {
		upto = pipeline.Tables
	}
	pr, err := pipeline.Build(g, upto, rec, bud)
	if err != nil {
		return nil, err
	}
	a := pr.Auto
	res = &Result{Grammar: g, Method: opts.Method, Automaton: a, DP: pr.DP, Tables: pr.Tables}
	if pr.DP != nil {
		res.Lookahead = pr.DP.Sets()
		return res, nil
	}
	sp := rec.Start("lookahead-" + opts.Method.String())
	switch opts.Method {
	case MethodSLR:
		// SLR FOLLOW computation is linear in the grammar and needs no
		// internal checkpoints; the budgeted LR(0) and table phases
		// bracket it.
		res.Lookahead = slr.Compute(a)
	case MethodPropagation:
		res.Lookahead, _, err = prop.ComputeBudgeted(a, rec, bud)
	case MethodCanonicalMerge:
		var m *lr1.Machine
		if m, err = lr1.NewBudgeted(g, pr.An, bud); err == nil {
			res.Lookahead = m.MergeLALR(a)
		}
	default:
		sp.End()
		return nil, fmt.Errorf("repro: unknown method %v", opts.Method)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	res.Tables, err = lalrtable.BuildBudgeted(a, res.Lookahead, rec, bud)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// AnalyzeContext is Analyze with an explicit cancellation context; it
// overrides Options.Context.
func AnalyzeContext(ctx context.Context, g *Grammar, opts Options) (*Result, error) {
	opts.Context = ctx
	return Analyze(g, opts)
}

// NewParser returns a tree-building parser for previously built tables.
func NewParser(t *Tables) *Parser { return runtime.New(t) }

// GLRRecognizer is a generalized-LR recogniser that forks on conflicts
// instead of resolving them, counting distinct derivations — the tool
// for demonstrating that a reported conflict is a real ambiguity.
type GLRRecognizer = glr.Parser

// NewGLR builds a GLR recogniser from an analysis result.
func NewGLR(res *Result) *GLRRecognizer {
	return glr.New(res.Automaton, res.Lookahead)
}

// SymLexer adapts a bare symbol sequence into a Lexer, mainly for tests
// and examples.
func SymLexer(g *Grammar, syms []Sym) Lexer { return runtime.SymLexer(g, syms) }

// ConflictExample pairs an unresolved conflict with a concrete input
// that triggers it.
type ConflictExample struct {
	Conflict Conflict
	// Input is a shortest terminal prefix reaching the conflicted
	// state, followed by the conflicting look-ahead terminal.
	Input []Sym
	// Text renders Input with a • marker before the look-ahead.
	Text string
}

// Counterexamples returns a triggering input for every unresolved
// conflict in the result's tables.
func (r *Result) Counterexamples() []ConflictExample {
	gen := cex.NewGenerator(r.Automaton)
	var out []ConflictExample
	for _, c := range r.Tables.Conflicts {
		if c.Resolution != lalrtable.DefaultShift && c.Resolution != lalrtable.DefaultEarlyRule {
			continue
		}
		ex := gen.ForConflict(c)
		if ex == nil {
			continue
		}
		input := append(append([]Sym{}, ex.Prefix...), ex.Terminal)
		out = append(out, ConflictExample{
			Conflict: c,
			Input:    input,
			Text:     ex.String(r.Grammar),
		})
	}
	return out
}

// Static analysis.  Lint runs the pass-based grammar linter of
// internal/lint: useless symbols, derivation cycles, reads-cycle
// not-LR(k) detection, conflict provenance and friends, each finding
// carrying a stable GLxxx diagnostic code.  See LintAll in batch.go for
// the corpus-parallel form.
type (
	// LintOptions configure a lint run (pass selection, severity floor,
	// -Werror promotion, conflict budget).
	LintOptions = lint.Options
	// LintReport is the outcome of linting one grammar.
	LintReport = lint.Report
	// LintDiagnostic is one finding with its stable code and locus.
	LintDiagnostic = lint.Diagnostic
	// LintBudget is an expected-conflict budget (the %expect analogue).
	LintBudget = lint.Budget
	// LintSeverity orders diagnostics: LintInfo, LintWarning, LintError.
	LintSeverity = lint.Severity
)

// Lint severity levels, re-exported.
const (
	LintInfo    = lint.Info
	LintWarning = lint.Warning
	LintError   = lint.Error
)

// Lint runs every enabled static-analysis pass over g and returns the
// filtered report.  It fails only on unusable options (unknown pass
// names); grammar problems are diagnostics in the report, not errors.
func Lint(g *Grammar, opts LintOptions) (*LintReport, error) {
	return lint.Run(g, opts)
}
