package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"

	"repro"
	"repro/internal/export"
	"repro/internal/grammar"
	"repro/internal/guard"
)

// Schema identifies the wire protocol.  Every response body — success
// or error — carries it, so clients can dispatch on shape before
// trusting fields.  Bump on incompatible changes.
const Schema = "repro-api/1"

// LimitsPayload is the wire form of guard.Limits.  Zero fields are
// unlimited; the server clamps each field against its own configured
// ceiling (see Server.admit), so a client can only tighten the
// server's budget, never widen it.
type LimitsPayload struct {
	MaxStates        int `json:"max_states,omitempty"`
	MaxLR1States     int `json:"max_lr1_states,omitempty"`
	MaxTableEntries  int `json:"max_table_entries,omitempty"`
	MaxRelationEdges int `json:"max_relation_edges,omitempty"`
}

// AnalyzeRequest is the POST /v1/analyze body.
type AnalyzeRequest struct {
	// Grammar is the grammar text in the yacc-like format.
	Grammar string `json:"grammar"`
	// Filename names the grammar in reports and error messages; it
	// also derives the grammar's name, so it is part of the cache key.
	// Defaults to "grammar.y".
	Filename string `json:"filename,omitempty"`
	// Method is the look-ahead method ("dp", "slr", "prop", "lr1");
	// empty means "dp".
	Method string `json:"method,omitempty"`
	// Limits tighten the server's per-request resource ceilings.
	Limits *LimitsPayload `json:"limits,omitempty"`
	// TimeoutMS bounds this request's wall clock, clamped to the
	// server's -timeout when both are set.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// AnalyzeResponse is the POST /v1/analyze success body.
type AnalyzeResponse struct {
	Schema      string         `json:"schema"`
	Kind        string         `json:"kind"` // "analyze"
	Fingerprint string         `json:"fingerprint"`
	Method      string         `json:"method"`
	Report      *export.Report `json:"report"`
}

// appendAnalyzeResponse appends the canonical /v1/analyze success body
// of a computed analysis: json.MarshalIndent of an AnalyzeResponse
// whose Report is export.Build's, byte for byte, plus the trailing
// newline marshalBody adds.  It mirrors the struct's tags by hand
// (export.AppendAnalysis writes the report); the server tests hold it
// to the encoding/json oracle.
func appendAnalyzeResponse(dst []byte, fp, method string, res *repro.Result) []byte {
	dst = appendAnalyzeEnvelope(dst, fp, method)
	dst = export.AppendAnalysis(dst, 1, res.Automaton, res.Lookahead, res.Tables, res.DP, method)
	return append(dst, "\n}\n"...)
}

// appendAnalyzeEnvelope appends an analyze body's envelope through the
// "report" key.
func appendAnalyzeEnvelope(dst []byte, fp, method string) []byte {
	dst = append(dst, "{\n  \"schema\": "...)
	dst = export.AppendString(dst, Schema)
	dst = append(dst, ",\n  \"kind\": \"analyze\",\n  \"fingerprint\": "...)
	dst = export.AppendString(dst, fp)
	dst = append(dst, ",\n  \"method\": "...)
	dst = export.AppendString(dst, method)
	return append(dst, ",\n  \"report\": "...)
}

// analyzeBodyAs returns body, an analyze body frozen under fingerprint
// fp, as it answers a request with this filename.  The fingerprint
// addresses the grammar text and method; the report's grammar name,
// which Parse takes from the filename, is the one byte range the
// filename decides (see export.AppendAnalysisHead).  So a body frozen
// under another filename is spliced: this request's head, then the
// rest of the stored body after the stored name.  It allocates only
// when the names differ, and never writes to body.  It reports false
// when body does not start like an analyze body for fp and method.
func analyzeBodyAs(body []byte, fp, method, filename string) ([]byte, bool) {
	buf := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(buf)
	head := export.AppendAnalysisHead(appendAnalyzeEnvelope((*buf)[:0], fp, method), 1, "")
	at := len(head) - len(`""`) // the name's JSON string starts here
	head = export.AppendString(head[:at], grammar.NameOf(filename))
	*buf = head
	if bytes.HasPrefix(body, head) {
		return body, true
	}
	if !bytes.HasPrefix(body, head[:at]) {
		return nil, false
	}
	end := jsonStringEnd(body, at)
	if end < 0 {
		return nil, false
	}
	return append(append(make([]byte, 0, len(head)+len(body)-end), head...), body[end:]...), true
}

// jsonStringEnd returns the offset just past the JSON string that
// starts with the quote at b[at], or -1 when b holds no such string.
func jsonStringEnd(b []byte, at int) int {
	if at >= len(b) || b[at] != '"' {
		return -1
	}
	for i := at + 1; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++ // the escaped byte cannot close the string
		case '"':
			return i + 1
		}
	}
	return -1
}

// LintRequest is the POST /v1/lint body.  The option fields mirror
// grammarlint's flags.
type LintRequest struct {
	Grammar  string `json:"grammar"`
	Filename string `json:"filename,omitempty"`
	// Enable restricts the run to the named passes; Disable removes
	// passes (applied after Enable).
	Enable  []string `json:"enable,omitempty"`
	Disable []string `json:"disable,omitempty"`
	// MinSeverity drops diagnostics below it: "info", "warning",
	// "error".  Empty keeps everything.
	MinSeverity string `json:"min_severity,omitempty"`
	// Werror promotes warnings to errors before severity filtering.
	Werror    bool           `json:"werror,omitempty"`
	Limits    *LimitsPayload `json:"limits,omitempty"`
	TimeoutMS int64          `json:"timeout_ms,omitempty"`
	// AmbigMaxLen / AmbigMaxPairs bound the ambiguity pass's SR-walk
	// (witness extension tokens / stack-pair configurations).  Zero
	// keeps the defaults; values are clamped server-side.  Both are
	// part of the cache key: different bounds can yield different
	// GL040/GL041/GL042 verdicts.
	AmbigMaxLen   int `json:"ambig_max_len,omitempty"`
	AmbigMaxPairs int `json:"ambig_max_pairs,omitempty"`
}

// LintResponse is the POST /v1/lint success body.  Lint holds a full
// repro-lint/1 document (the grammarlint -format=json shape) with this
// one grammar's report.
type LintResponse struct {
	Schema      string        `json:"schema"`
	Kind        string        `json:"kind"` // "lint"
	Fingerprint string        `json:"fingerprint"`
	Lint        jsonRawBody   `json:"lint"`
	Ambig       *AmbigSummary `json:"ambig,omitempty"`
}

// AmbigSummary totals the ambiguity pass's per-conflict verdicts:
// Proven counts GL040 (witness confirmed by both oracles), Unambiguous
// counts GL041 (search space exhausted without a witness), Undecided
// counts GL042 (a bound or budget stopped the walk).  Omitted when the
// grammar has no unresolved conflicts or the pass was disabled.
type AmbigSummary struct {
	Proven      int `json:"proven"`
	Unambiguous int `json:"unambiguous"`
	Undecided   int `json:"undecided"`
}

// jsonRawBody embeds pre-encoded JSON verbatim.
type jsonRawBody []byte

func (b jsonRawBody) MarshalJSON() ([]byte, error) { return b, nil }
func (b *jsonRawBody) UnmarshalJSON(data []byte) error {
	*b = append((*b)[:0], data...)
	return nil
}

// BatchGrammar is one entry of a batch request.
type BatchGrammar struct {
	// Name derives the per-grammar filename (Name + ".y").
	Name    string `json:"name"`
	Grammar string `json:"grammar"`
}

// BatchRequest is the POST /v1/batch body: many grammars analyzed with
// one method, fanned out over the server's worker pool.
type BatchRequest struct {
	Grammars []BatchGrammar `json:"grammars"`
	Method   string         `json:"method,omitempty"`
	// Policy is "collect" (default: every grammar runs, failures are
	// reported per entry) or "failfast" (the batch cancels on the
	// first failure; unstarted entries report a canceled error).
	Policy string `json:"policy,omitempty"`
	// Workers bounds batch concurrency; 0 means one per CPU.  The
	// server clamps it to its own ceiling (GOMAXPROCS, tightened to
	// -max-inflight): a batch holds one admission slot, so its fan-out
	// cannot multiply past the server's own bounds.
	Workers   int            `json:"workers,omitempty"`
	Limits    *LimitsPayload `json:"limits,omitempty"`
	TimeoutMS int64          `json:"timeout_ms,omitempty"`
}

// BatchResult is one grammar's outcome inside a BatchResponse: exactly
// one of Report and Error is set.
type BatchResult struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	// CacheHit reports whether this entry was served without running
	// the pipeline.
	CacheHit bool `json:"cache_hit"`
	// Report is the "report" value of the grammar's /v1/analyze body,
	// taken as bytes; encoding the response compacts and re-indents it.
	Report json.RawMessage `json:"report,omitempty"`
	Error  *ErrorPayload   `json:"error,omitempty"`
}

// BatchResponse is the POST /v1/batch body.  The HTTP status is 200
// whenever the batch itself ran; per-grammar failures live in the
// results (the Collect discipline of internal/driver, surfaced).
type BatchResponse struct {
	Schema  string        `json:"schema"`
	Kind    string        `json:"kind"` // "batch"
	Method  string        `json:"method"`
	Results []BatchResult `json:"results"`
}

// ErrorPayload is the structured error carried by every non-2xx
// response (and by failed batch entries).  Kind is the coarse taxonomy
// clients dispatch on; the resource fields are populated for "limit"
// errors (the guard.ErrLimitExceeded projection).
type ErrorPayload struct {
	// Kind is one of "bad_request", "grammar", "limit", "canceled",
	// "internal", "overloaded", "not_found", "method_not_allowed".
	Kind     string `json:"kind"`
	Message  string `json:"message"`
	Resource string `json:"resource,omitempty"`
	Limit    int    `json:"limit,omitempty"`
	Observed int    `json:"observed,omitempty"`
	Phase    string `json:"phase,omitempty"`
}

// ErrorResponse is the envelope of a non-2xx response.
type ErrorResponse struct {
	Schema string       `json:"schema"`
	Kind   string       `json:"kind"` // "error"
	Error  ErrorPayload `json:"error"`
}

// errorFor maps a pipeline error onto its HTTP status and wire
// payload: resource-limit trips are 422 (the request was well-formed,
// the grammar is just too expensive under the admitted budget),
// cancellations and deadlines are 504, contained panics are 500 —
// isolated to this request, the server keeps serving.
func errorFor(err error) (int, ErrorPayload) {
	var limit *guard.ErrLimitExceeded
	if errors.As(err, &limit) {
		return http.StatusUnprocessableEntity, ErrorPayload{
			Kind:     "limit",
			Message:  limit.Error(),
			Resource: string(limit.Resource),
			Limit:    limit.Limit,
			Observed: limit.Observed,
			Phase:    limit.Phase,
		}
	}
	if errors.Is(err, guard.ErrCanceled) {
		p := ErrorPayload{Kind: "canceled", Message: err.Error()}
		var cancel *guard.CancelError
		if errors.As(err, &cancel) {
			p.Phase = cancel.Phase
		}
		return http.StatusGatewayTimeout, p
	}
	var internal *guard.ErrInternal
	if errors.As(err, &internal) {
		// The stack stays in the server log; the wire carries the
		// one-line description only.
		return http.StatusInternalServerError, ErrorPayload{Kind: "internal", Message: internal.Error()}
	}
	var ge *grammarError
	if errors.As(err, &ge) {
		return http.StatusBadRequest, ErrorPayload{Kind: "grammar", Message: ge.Error()}
	}
	return http.StatusInternalServerError, ErrorPayload{Kind: "internal", Message: err.Error()}
}

// grammarError marks a grammar that failed to parse, so errorFor can
// tell client mistakes (400) from pipeline faults (500).
type grammarError struct{ err error }

func (e *grammarError) Error() string { return e.err.Error() }
func (e *grammarError) Unwrap() error { return e.err }
