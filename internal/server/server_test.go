package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/guard"
)

const tinyGrammar = "%token A B\n%%\ns : A s B | A ;\n"

// danglingElse is the textbook shift/reduce grammar, so lint reports
// have a guaranteed finding.
const danglingElse = `
%token IF THEN ELSE other cond
%%
stmt : IF cond THEN stmt | IF cond THEN stmt ELSE stmt | other ;
`

func newTestServer(t testing.TB, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg))
	t.Cleanup(ts.Close)
	return ts
}

func post(t testing.TB, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t testing.TB, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func metricz(t *testing.T, ts *httptest.Server) MetriczResponse {
	t.Helper()
	resp, body := get(t, ts, "/metricz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metricz status = %d", resp.StatusCode)
	}
	var m MetriczResponse
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("/metricz body: %v", err)
	}
	if m.Schema != Schema || m.Kind != "metricz" {
		t.Fatalf("/metricz envelope = %s/%s", m.Schema, m.Kind)
	}
	return m
}

func TestAnalyzeCacheHitByteIdentical(t *testing.T) {
	ts := newTestServer(t, Config{CacheBytes: 1 << 20})
	req := AnalyzeRequest{Grammar: tinyGrammar, Filename: "tiny.y"}

	resp1, body1 := post(t, ts, "/v1/analyze", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first status = %d: %s", resp1.StatusCode, body1)
	}
	if h := resp1.Header.Get("X-Repro-Cache"); h != "miss" {
		t.Errorf("first X-Repro-Cache = %q, want miss", h)
	}
	resp2, body2 := post(t, ts, "/v1/analyze", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second status = %d", resp2.StatusCode)
	}
	if h := resp2.Header.Get("X-Repro-Cache"); h != "hit" {
		t.Errorf("second X-Repro-Cache = %q, want hit", h)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached body differs from computed body")
	}

	var env AnalyzeResponse
	if err := json.Unmarshal(body1, &env); err != nil {
		t.Fatal(err)
	}
	if env.Schema != Schema || env.Kind != "analyze" || env.Method != "deremer-pennello" {
		t.Errorf("envelope = %s/%s/%s", env.Schema, env.Kind, env.Method)
	}
	if want := repro.Fingerprint(tinyGrammar, repro.Options{}); env.Fingerprint != want {
		t.Errorf("fingerprint = %s, want %s", env.Fingerprint, want)
	}
	if env.Report == nil || len(env.Report.States) == 0 {
		t.Error("missing report states")
	}

	m := metricz(t, ts)
	if m.Cache.Hits < 1 || m.Counters["cache_hits"] < 1 {
		t.Errorf("cache hits = %d / %d, want >= 1", m.Cache.Hits, m.Counters["cache_hits"])
	}
	if m.Counters["lr0_states"] == 0 {
		t.Error("pipeline counters were not folded into server metrics")
	}
	if m.Counters["requests_analyze"] != 2 {
		t.Errorf("requests_analyze = %d, want 2", m.Counters["requests_analyze"])
	}
}

func TestAnalyzeMethodsAndFilenameAreKeyed(t *testing.T) {
	ts := newTestServer(t, Config{CacheBytes: 1 << 20})
	_, bodyDP := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar, Method: "dp"})
	resp, bodySLR := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar, Method: "slr"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slr status = %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Repro-Cache") == "hit" {
		t.Error("different method must not share a cache entry")
	}
	if bytes.Equal(bodyDP, bodySLR) {
		t.Error("dp and slr bodies should differ (method field)")
	}
	respB, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar, Method: "dp", Filename: "other.y"})
	if respB.Header.Get("X-Repro-Cache") == "hit" {
		t.Error("different filename changes the report body, so it must miss")
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{CacheBytes: 1 << 20})
	for _, tc := range []struct {
		name string
		req  AnalyzeRequest
		kind string
	}{
		{"missing grammar", AnalyzeRequest{}, "bad_request"},
		{"unknown method", AnalyzeRequest{Grammar: tinyGrammar, Method: "nope"}, "bad_request"},
		{"syntax error", AnalyzeRequest{Grammar: "%% : ;"}, "grammar"},
	} {
		resp, body := post(t, ts, "/v1/analyze", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if er.Schema != Schema || er.Kind != "error" || er.Error.Kind != tc.kind {
			t.Errorf("%s: envelope = %+v, want error kind %s", tc.name, er, tc.kind)
		}
	}
	resp, _ := post(t, ts, "/v1/analyze", map[string]any{"grammar": tinyGrammar, "bogus": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status = %d, want 400", resp.StatusCode)
	}
}

func TestLimitTripIs422AndServerSurvives(t *testing.T) {
	ts := newTestServer(t, Config{CacheBytes: 1 << 20})
	req := AnalyzeRequest{Grammar: tinyGrammar, Limits: &LimitsPayload{MaxStates: 2}}
	resp, body := post(t, ts, "/v1/analyze", req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Kind != "limit" || er.Error.Resource != string(guard.ResLR0States) ||
		er.Error.Limit != 2 || er.Error.Observed <= 2 || er.Error.Phase == "" {
		t.Errorf("limit payload = %+v", er.Error)
	}

	// Failures are not cached: the same grammar without limits
	// computes fine, and the server kept serving throughout.
	resp2, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Repro-Cache") != "miss" {
		t.Fatalf("after limit trip: status = %d cache = %s, want 200 miss (the 422 must not be cached)",
			resp2.StatusCode, resp2.Header.Get("X-Repro-Cache"))
	}
	// And now that a result exists, even a tightly-limited request is
	// served from cache — a hit spends no governed resources.
	resp3, _ := post(t, ts, "/v1/analyze", req)
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get("X-Repro-Cache") != "hit" {
		t.Errorf("limited request after cache fill: status = %d cache = %s, want 200 hit",
			resp3.StatusCode, resp3.Header.Get("X-Repro-Cache"))
	}
}

func TestServerLimitsClampRequests(t *testing.T) {
	ts := newTestServer(t, Config{CacheBytes: 1 << 20, Limits: guard.Limits{MaxStates: 2}})
	// The request asks for a wider budget than the server allows; the
	// admission mapping must keep the server's ceiling.
	resp, body := post(t, ts, "/v1/analyze", AnalyzeRequest{
		Grammar: tinyGrammar, Limits: &LimitsPayload{MaxStates: 1 << 30},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (server ceiling must win): %s", resp.StatusCode, body)
	}
}

func TestDeadlineIs504(t *testing.T) {
	// A fault that stalls past the request deadline: the next
	// checkpoint in the same phase observes the expired context.
	restore := guard.InjectFault(&guard.Fault{
		Owner: "slow",
		Do:    func() error { time.Sleep(30 * time.Millisecond); return nil },
	})
	defer restore()
	ts := newTestServer(t, Config{CacheBytes: 1 << 20})
	resp, body := post(t, ts, "/v1/analyze", AnalyzeRequest{
		Grammar: tinyGrammar, Filename: "slow.y", TimeoutMS: 1,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Kind != "canceled" {
		t.Errorf("error kind = %s, want canceled", er.Error.Kind)
	}
}

func TestPanicIsolatedAs500(t *testing.T) {
	restore := guard.InjectFault(&guard.Fault{
		Owner: "boom",
		Do:    func() error { panic("injected server fault") },
	})
	defer restore()
	ts := newTestServer(t, Config{CacheBytes: 1 << 20})
	resp, body := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar, Filename: "boom.y"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Kind != "internal" || !strings.Contains(er.Error.Message, "boom") {
		t.Errorf("error payload = %+v", er.Error)
	}
	// The fault was isolated to that request; the server still serves.
	resp2, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar, Filename: "fine.y"})
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("after panic: status = %d, want 200", resp2.StatusCode)
	}
}

func TestLintEndpointCached(t *testing.T) {
	ts := newTestServer(t, Config{CacheBytes: 1 << 20})
	req := LintRequest{Grammar: danglingElse, Filename: "else.y"}
	resp1, body1 := post(t, ts, "/v1/lint", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp1.StatusCode, body1)
	}
	resp2, body2 := post(t, ts, "/v1/lint", req)
	if resp2.Header.Get("X-Repro-Cache") != "hit" || !bytes.Equal(body1, body2) {
		t.Error("second lint of the same grammar must be a byte-identical cache hit")
	}
	var env struct {
		Schema string `json:"schema"`
		Kind   string `json:"kind"`
		Lint   struct {
			Schema  string `json:"schema"`
			Reports []struct {
				Grammar     string `json:"grammar"`
				Diagnostics []struct {
					Code string `json:"code"`
				} `json:"diagnostics"`
			} `json:"reports"`
		} `json:"lint"`
	}
	if err := json.Unmarshal(body1, &env); err != nil {
		t.Fatal(err)
	}
	if env.Kind != "lint" || env.Lint.Schema != "repro-lint/1" || len(env.Lint.Reports) != 1 {
		t.Fatalf("lint envelope = %+v", env)
	}
	found := false
	for _, d := range env.Lint.Reports[0].Diagnostics {
		if d.Code == "GL030" {
			found = true
		}
	}
	if !found {
		t.Error("dangling else must report GL030 (shift/reduce)")
	}

	// Different options are different cache entries.
	resp3, _ := post(t, ts, "/v1/lint", LintRequest{Grammar: danglingElse, Filename: "else.y", MinSeverity: "error"})
	if resp3.Header.Get("X-Repro-Cache") == "hit" {
		t.Error("changed lint options must not share a cache entry")
	}
	// Unknown pass names are the client's mistake.
	resp4, _ := post(t, ts, "/v1/lint", LintRequest{Grammar: danglingElse, Enable: []string{"nope"}})
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown pass: status = %d, want 400", resp4.StatusCode)
	}
}

func TestLintAmbiguityVerdicts(t *testing.T) {
	ts := newTestServer(t, Config{CacheBytes: 1 << 20})
	var env struct {
		Ambig *AmbigSummary `json:"ambig"`
		Lint  struct {
			Reports []struct {
				Diagnostics []struct {
					Code    string `json:"code"`
					Witness string `json:"witness"`
				} `json:"diagnostics"`
			} `json:"reports"`
		} `json:"lint"`
	}

	// Default bounds prove the dangling else ambiguous: one GL040 with
	// a witness sentence, surfaced in the summary header.
	resp, body := post(t, ts, "/v1/lint", LintRequest{Grammar: danglingElse, Filename: "else.y"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Ambig == nil || env.Ambig.Proven != 1 || env.Ambig.Undecided != 0 {
		t.Fatalf("ambig summary = %+v, want exactly one proven", env.Ambig)
	}
	witness := ""
	for _, d := range env.Lint.Reports[0].Diagnostics {
		if d.Code == "GL040" {
			witness = d.Witness
		}
	}
	if !strings.Contains(witness, "ELSE") {
		t.Errorf("GL040 witness = %q, want an ELSE sentence", witness)
	}
	// The walk's counters fold into /metricz.
	c := metricz(t, ts).Counters
	if c["ambig_walks"] != 1 || c["ambig_pairs"] <= 0 || c["ambig_stack_nodes"] <= 0 {
		t.Errorf("ambig counters = walks %d, pairs %d, stack nodes %d; want 1 walk and both positive",
			c["ambig_walks"], c["ambig_pairs"], c["ambig_stack_nodes"])
	}

	// Starved bounds flip the verdict to GL042 — and since the bounds
	// are part of the cache key, this must not hit the default entry.
	resp2, body2 := post(t, ts, "/v1/lint", LintRequest{Grammar: danglingElse, Filename: "else.y", AmbigMaxPairs: 1})
	if resp2.Header.Get("X-Repro-Cache") == "hit" {
		t.Error("changed ambiguity bounds must not share a cache entry")
	}
	env.Ambig = nil
	if err := json.Unmarshal(body2, &env); err != nil {
		t.Fatal(err)
	}
	if env.Ambig == nil || env.Ambig.Undecided != 1 || env.Ambig.Proven != 0 {
		t.Fatalf("starved ambig summary = %+v, want exactly one undecided", env.Ambig)
	}

	// Bounds above the server ceiling clamp to it — same cache entry as
	// an explicitly-at-ceiling request.
	r3, _ := post(t, ts, "/v1/lint", LintRequest{Grammar: danglingElse, Filename: "else.y", AmbigMaxPairs: maxAmbigPairs})
	if r3.StatusCode != http.StatusOK {
		t.Fatal("at-ceiling request failed")
	}
	r4, _ := post(t, ts, "/v1/lint", LintRequest{Grammar: danglingElse, Filename: "else.y", AmbigMaxPairs: maxAmbigPairs * 10})
	if r4.Header.Get("X-Repro-Cache") != "hit" {
		t.Error("over-ceiling bound should clamp onto the at-ceiling cache entry")
	}
}

func TestBatchCollectAndFailFast(t *testing.T) {
	ts := newTestServer(t, Config{CacheBytes: 1 << 20})
	batch := BatchRequest{
		Grammars: []BatchGrammar{
			{Name: "good", Grammar: tinyGrammar},
			{Name: "bad", Grammar: "%% : ;"},
			{Name: "else", Grammar: danglingElse},
		},
	}
	resp, body := post(t, ts, "/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var env BatchResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(env.Results))
	}
	if env.Results[0].Report == nil || env.Results[0].Error != nil {
		t.Errorf("good: %+v", env.Results[0])
	}
	if env.Results[1].Error == nil || env.Results[1].Error.Kind != "grammar" {
		t.Errorf("bad: %+v", env.Results[1].Error)
	}
	if env.Results[2].Report == nil {
		t.Errorf("else: %+v — collect must run every entry past a failure", env.Results[2])
	}

	// The batch warmed the cache: a single request for the same
	// grammar is a hit.
	respOne, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar, Filename: "good.y"})
	if respOne.Header.Get("X-Repro-Cache") != "hit" {
		t.Error("batch results must be shared with /v1/analyze")
	}

	// FailFast with one worker cancels everything after the failure.
	ff := BatchRequest{
		Grammars: []BatchGrammar{
			{Name: "bad", Grammar: "%% : ;"},
			{Name: "late", Grammar: "%token X\n%%\nq : X ;\n"},
		},
		Policy:  "failfast",
		Workers: 1,
	}
	_, body = post(t, ts, "/v1/batch", ff)
	var ffEnv BatchResponse
	if err := json.Unmarshal(body, &ffEnv); err != nil {
		t.Fatal(err)
	}
	if ffEnv.Results[0].Error == nil || ffEnv.Results[0].Error.Kind != "grammar" {
		t.Errorf("failfast first: %+v", ffEnv.Results[0])
	}
	if ffEnv.Results[1].Error == nil || ffEnv.Results[1].Error.Kind != "canceled" {
		t.Errorf("failfast second: %+v — must be canceled, not run", ffEnv.Results[1])
	}
}

// TestBatchWorkersClamped checks the server-side ceiling on batch
// fan-out: a batch holds one admission slot, so the client's workers
// field must not let it run more concurrent pipelines than the server
// itself allows.
func TestBatchWorkersClamped(t *testing.T) {
	nproc := runtime.GOMAXPROCS(0)
	unlimited := New(Config{})
	if got := unlimited.batchWorkers(0); got != nproc {
		t.Errorf("default workers = %d, want GOMAXPROCS = %d", got, nproc)
	}
	if got := unlimited.batchWorkers(1 << 20); got != nproc {
		t.Errorf("huge request = %d, want clamped to %d", got, nproc)
	}
	if got := unlimited.batchWorkers(1); got != 1 {
		t.Errorf("small request = %d, want honored as 1", got)
	}
	bounded := New(Config{MaxInflight: 1})
	if got := bounded.batchWorkers(1 << 20); got != 1 {
		t.Errorf("bounded huge request = %d, want 1 (max-inflight tightens the ceiling)", got)
	}

	// End to end: an absurd workers value is clamped, not honored, and
	// the batch still completes every entry.
	ts := newTestServer(t, Config{CacheBytes: 1 << 20, MaxInflight: 1})
	resp, body := post(t, ts, "/v1/batch", BatchRequest{
		Grammars: []BatchGrammar{
			{Name: "a", Grammar: tinyGrammar},
			{Name: "b", Grammar: danglingElse},
		},
		Workers: 1 << 20,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var env BatchResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	for i, r := range env.Results {
		if r.Report == nil || r.Error != nil {
			t.Errorf("entry %d: %+v", i, r)
		}
	}
}

// TestBatchTimeoutBoundsEntries: the batch's timeout_ms must bound
// each entry's computation, not just dispatch between entries —
// computeContext detaches entries from cancellation but must reclaim
// the batch deadline.
func TestBatchTimeoutBoundsEntries(t *testing.T) {
	restore := guard.InjectFault(&guard.Fault{
		Owner: "slowbatch",
		Do:    func() error { time.Sleep(30 * time.Millisecond); return nil },
	})
	defer restore()
	ts := newTestServer(t, Config{CacheBytes: 1 << 20}) // no server -timeout
	resp, body := post(t, ts, "/v1/batch", BatchRequest{
		Grammars:  []BatchGrammar{{Name: "slowbatch", Grammar: tinyGrammar}},
		TimeoutMS: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var env BatchResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Results[0].Error == nil || env.Results[0].Error.Kind != "canceled" {
		t.Errorf("slow entry = %+v, want a canceled error from the batch deadline", env.Results[0])
	}
}

// TestComputeContextKeepsParentDeadline pins the contract directly:
// detaching from the client's cancellation must not drop a deadline
// already on the parent context.
func TestComputeContextKeepsParentDeadline(t *testing.T) {
	s := New(Config{})
	parent, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	ctx, cancel2 := s.computeContext(parent, 0)
	defer cancel2()
	dl, ok := ctx.Deadline()
	if !ok {
		t.Fatal("computeContext dropped the parent deadline")
	}
	parentDL, _ := parent.Deadline()
	if dl.After(parentDL) {
		t.Errorf("derived deadline %v is later than the parent's %v", dl, parentDL)
	}
	cancel() // the client hangs up...
	if ctx.Err() != nil {
		t.Errorf("ctx.Err() = %v; compute must stay detached from cancellation", ctx.Err())
	}
}

// TestJoinerRetriesAfterBudgetError: a singleflight joiner that
// receives the initiating caller's limit trip retries under its own
// compute closure instead of inheriting a failure its own budget would
// not have produced.
func TestJoinerRetriesAfterBudgetError(t *testing.T) {
	s := New(Config{CacheBytes: 1 << 20})
	entered := make(chan struct{})
	release := make(chan struct{})
	limitErr := &guard.ErrLimitExceeded{Resource: guard.ResLR0States, Limit: 1, Observed: 2, Phase: "lr0-states"}

	ownerErr := make(chan error, 1)
	go func() {
		_, _, err := s.getOrCompute("k", func() ([]byte, error) {
			close(entered)
			<-release
			return nil, limitErr
		})
		ownerErr <- err
	}()
	<-entered

	joinerDone := make(chan struct{})
	var jBody []byte
	var jErr error
	go func() {
		defer close(joinerDone)
		jBody, _, jErr = s.getOrCompute("k", func() ([]byte, error) { return []byte("wide-budget"), nil })
	}()
	time.Sleep(10 * time.Millisecond) // give the joiner time to join the flight
	close(release)

	if err := <-ownerErr; err != limitErr {
		t.Errorf("owner err = %v, want its own limit trip", err)
	}
	select {
	case <-joinerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("joiner never finished")
	}
	// Whether it joined (and retried) or raced past the flight and
	// computed directly, the joiner must end with its own result.
	if jErr != nil || string(jBody) != "wide-budget" {
		t.Errorf("joiner body=%q err=%v, want its own successful compute", jBody, jErr)
	}
}

// TestBatchDefaultFilenameSharesCacheWithAnalyze: unnamed batch
// entries and default /v1/analyze requests must key identically, in
// both directions.
func TestBatchDefaultFilenameSharesCacheWithAnalyze(t *testing.T) {
	ts := newTestServer(t, Config{CacheBytes: 1 << 20})
	resp, _ := post(t, ts, "/v1/batch", BatchRequest{Grammars: []BatchGrammar{{Grammar: tinyGrammar}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	respOne, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
	if respOne.Header.Get("X-Repro-Cache") != "hit" {
		t.Error("an unnamed batch entry must warm the cache for a default /v1/analyze")
	}

	if resp, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: danglingElse}); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d", resp.StatusCode)
	}
	_, body := post(t, ts, "/v1/batch", BatchRequest{Grammars: []BatchGrammar{{Grammar: danglingElse}}})
	var env BatchResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if !env.Results[0].CacheHit {
		t.Error("a default /v1/analyze must warm the cache for an unnamed batch entry")
	}
}

// TestConcurrentIdenticalRequestsSingleflight hammers one grammar from
// many goroutines; the pipeline must run exactly once.  Run with -race
// this is also the server's locking test.
func TestConcurrentIdenticalRequestsSingleflight(t *testing.T) {
	ts := newTestServer(t, Config{CacheBytes: 1 << 20})
	const n = 16
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, _ := json.Marshal(AnalyzeRequest{Grammar: danglingElse, Filename: "else.y"})
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("request %d body differs", i)
		}
	}
	m := metricz(t, ts)
	if m.Cache.Misses != 1 {
		t.Errorf("cache misses = %d, want exactly 1 pipeline execution", m.Cache.Misses)
	}
	if m.Cache.Hits+m.Cache.Shared != n-1 {
		t.Errorf("hits+shared = %d, want %d", m.Cache.Hits+m.Cache.Shared, n-1)
	}
}

// TestAdmissionControl fills the single admission slot with a stalled
// request and checks the next one is rejected with 429 — then drains
// and confirms normal service resumes.
func TestAdmissionControl(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	restore := guard.InjectFault(&guard.Fault{
		Owner: "stall",
		Do: func() error {
			close(entered)
			<-release
			return nil
		},
	})
	defer restore()

	ts := newTestServer(t, Config{CacheBytes: 1 << 20, MaxInflight: 1})
	done := make(chan int, 1)
	go func() {
		data, _ := json.Marshal(AnalyzeRequest{Grammar: tinyGrammar, Filename: "stall.y"})
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(data))
		if err != nil {
			done <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-entered // the slot is now held mid-pipeline

	resp, body := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar, Filename: "other.y"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Kind != "overloaded" {
		t.Errorf("error kind = %s, want overloaded", er.Error.Kind)
	}

	close(release)
	if status := <-done; status != http.StatusOK {
		t.Fatalf("stalled request finished with %d, want 200", status)
	}
	resp2, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar, Filename: "after.y"})
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("after drain: status = %d, want 200", resp2.StatusCode)
	}
	m := metricz(t, ts)
	if m.Admission.Rejected < 1 || m.Admission.MaxInflight != 1 {
		t.Errorf("admission = %+v", m.Admission)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h HealthzResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Schema != Schema || h.Status != "ok" {
		t.Errorf("healthz = %+v", h)
	}
	if resp, _ := get(t, ts, "/v1/analyze"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze = %d, want 405", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope = %d, want 404", resp.StatusCode)
	}
}

func TestUncachedServerStillServes(t *testing.T) {
	ts := newTestServer(t, Config{CacheBytes: 0})
	for i := 0; i < 2; i++ {
		resp, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, resp.StatusCode)
		}
		if h := resp.Header.Get("X-Repro-Cache"); h != "miss" {
			t.Errorf("request %d: X-Repro-Cache = %q, want miss at budget 0", i, h)
		}
	}
}

var _ = fmt.Sprintf // keep fmt imported if assertions above change
