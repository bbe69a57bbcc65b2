package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/cliguard"
	"repro/internal/telemetry"
)

func TestRequestIDHeaderOnEveryResponse(t *testing.T) {
	ts := newTestServer(t, Config{CacheBytes: 1 << 20})
	seen := map[string]bool{}
	for _, probe := range []func() *http.Response{
		func() *http.Response { r, _ := get(t, ts, "/healthz"); return r },
		func() *http.Response {
			r, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
			return r
		},
		func() *http.Response { r, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{}); return r }, // 400
		func() *http.Response { r, _ := get(t, ts, "/metricz"); return r },
	} {
		resp := probe()
		id := resp.Header.Get("X-Repro-Request-Id")
		if !strings.HasPrefix(id, "r-") {
			t.Fatalf("X-Repro-Request-Id = %q, want r-... on %s", id, resp.Request.URL)
		}
		if seen[id] {
			t.Errorf("request id %s repeated", id)
		}
		seen[id] = true
	}
}

func TestTraceRoundTripByRequestID(t *testing.T) {
	ts := newTestServer(t, Config{CacheBytes: 1 << 20})

	// Miss: the trace must carry the span tree of the computation.
	resp, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar, Filename: "t.y"})
	missID := resp.Header.Get("X-Repro-Request-Id")
	tr := fetchTrace(t, ts, missID)
	if tr.Status != http.StatusOK || tr.Verdict != "ok" || tr.Outcome != "miss" {
		t.Errorf("miss trace = status %d verdict %q outcome %q", tr.Status, tr.Verdict, tr.Outcome)
	}
	if tr.Method != "POST" || tr.Path != "/v1/analyze" || tr.LatencyNs <= 0 {
		t.Errorf("miss trace identity = %+v", tr)
	}
	if len(tr.Entries) != 1 {
		t.Fatalf("miss trace entries = %d, want 1", len(tr.Entries))
	}
	e := tr.Entries[0]
	if e.Label != "t.y" || e.Outcome != "miss" || len(e.Fingerprint) != 64 {
		t.Errorf("miss entry = %+v", e)
	}
	if len(e.Phases) == 0 {
		t.Error("miss entry has no phase spans — the obs tree was not captured")
	}

	// Hit: same request again; entry present, no phases (nothing ran).
	resp, _ = post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar, Filename: "t.y"})
	hitTr := fetchTrace(t, ts, resp.Header.Get("X-Repro-Request-Id"))
	if hitTr.Outcome != "hit" || len(hitTr.Entries) != 1 || len(hitTr.Entries[0].Phases) != 0 {
		t.Errorf("hit trace = outcome %q entries %+v", hitTr.Outcome, hitTr.Entries)
	}

	// An error request gets its verdict recorded.
	resp, _ = post(t, ts, "/v1/analyze", AnalyzeRequest{})
	badTr := fetchTrace(t, ts, resp.Header.Get("X-Repro-Request-Id"))
	if badTr.Status != http.StatusBadRequest || badTr.Verdict != "bad_request" {
		t.Errorf("bad-request trace = status %d verdict %q", badTr.Status, badTr.Verdict)
	}

	// The list view knows all three, newest first, without span detail.
	listResp, listBody := get(t, ts, "/debugz/traces")
	if listResp.StatusCode != http.StatusOK {
		t.Fatalf("/debugz/traces status = %d", listResp.StatusCode)
	}
	var list TracesResponse
	if err := json.Unmarshal(listBody, &list); err != nil {
		t.Fatalf("traces body: %v", err)
	}
	if len(list.Recent) != 3 {
		t.Fatalf("recent traces = %d, want 3 (/v1/* only)", len(list.Recent))
	}
	if list.Recent[2].ID != missID {
		t.Errorf("oldest recent = %s, want %s", list.Recent[2].ID, missID)
	}
	for _, r := range list.Recent {
		if len(r.Entries) != 0 {
			t.Errorf("list view of %s carries entries; summaries must not", r.ID)
		}
	}
	if len(list.Slowest) == 0 {
		t.Error("slowest list empty after three requests")
	}

	// Unknown IDs 404 with the error taxonomy.
	resp404, body404 := get(t, ts, "/debugz/traces/r-nope-000001")
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d", resp404.StatusCode)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body404, &er); err != nil || er.Error.Kind != "not_found" {
		t.Errorf("404 payload = %s err=%v, want kind not_found", body404, err)
	}
}

// fetchTrace retrieves one full trace by its echoed request ID.
func fetchTrace(t *testing.T, ts *httptest.Server, id string) telemetry.TraceExport {
	t.Helper()
	resp, body := get(t, ts, "/debugz/traces/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debugz/traces/%s status = %d: %s", id, resp.StatusCode, body)
	}
	var tr TraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("trace body: %v", err)
	}
	if tr.Kind != "trace" || tr.Trace.ID != id {
		t.Fatalf("trace envelope = kind %q id %q, want trace/%s", tr.Kind, tr.Trace.ID, id)
	}
	return tr.Trace
}

func TestMetriczJSONTelemetrySections(t *testing.T) {
	ts := newTestServer(t, Config{CacheBytes: 1 << 20, MaxInflight: 4})
	post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
	post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})

	m := metricz(t, ts)
	if m.Cache.HitRatio != 0.5 {
		t.Errorf("hit_ratio = %v, want 0.5 after one miss + one hit", m.Cache.HitRatio)
	}
	if m.InflightRequests < 1 {
		t.Errorf("inflight_requests = %d, want >= 1 (the scrape itself)", m.InflightRequests)
	}
	ep, ok := m.Latency["endpoint/analyze"]
	if !ok || ep.Count != 2 {
		t.Fatalf("latency[endpoint/analyze] = %+v ok=%v, want count 2", ep, ok)
	}
	if ep.P50Ns <= 0 || ep.P999Ns < ep.P50Ns || ep.MaxNs < ep.MinNs {
		t.Errorf("endpoint summary not sane: %+v", ep)
	}
	if _, ok := m.Latency["outcome/miss"]; !ok {
		t.Error("latency missing outcome/miss")
	}
	if _, ok := m.Latency["outcome/hit"]; !ok {
		t.Error("latency missing outcome/hit")
	}
	foundPhase := false
	for name := range m.Latency {
		if strings.HasPrefix(name, "phase/") {
			foundPhase = true
			break
		}
	}
	if !foundPhase {
		t.Errorf("no phase/* histograms registered; latency keys = %v", keysOf(m.Latency))
	}
}

func keysOf(m map[string]telemetry.Summary) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestMetriczPromExposition(t *testing.T) {
	ts := newTestServer(t, Config{CacheBytes: 1 << 20, MaxInflight: 4})
	post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
	post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
	post(t, ts, "/v1/lint", LintRequest{Grammar: danglingElse})

	resp, body := get(t, ts, "/metricz?format=prom")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prom status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, telemetry.PromContentType)
	}
	if err := telemetry.ValidateProm(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		"# TYPE lalrd_endpoint_duration_seconds histogram",
		`lalrd_endpoint_duration_seconds_count{endpoint="analyze"} 2`,
		"# TYPE lalrd_phase_duration_seconds histogram",
		"# TYPE lalrd_outcome_duration_seconds histogram",
		// One hit out of three lookups (analyze miss+hit, lint miss).
		"lalrd_cache_hit_ratio 0.33",
		`lalrd_cache_events_total{event="hit"} 1`,
		"lalrd_uptime_seconds",
		"lalrd_inflight_requests",
		`lalrd_counter_total{name="requests_analyze"} 2`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestHealthzUptimeAndBuild(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var h HealthzResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if h.Status != "ok" || h.UptimeMS < 0 {
		t.Errorf("healthz = %+v", h)
	}
	// Test binaries still embed the Go version even without VCS stamps.
	if h.Build.GoVersion == "" {
		t.Errorf("healthz build info empty: %+v", h.Build)
	}
}

func TestAccessLogJSONRecords(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	// The logger lalrd builds for -log-format json.
	logger := cliguard.LogFormat("json").Logger(lockedWriter{&mu, &buf})
	ts := newTestServer(t, Config{CacheBytes: 1 << 20, AccessLog: logger})

	resp, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
	wantID := resp.Header.Get("X-Repro-Request-Id")
	post(t, ts, "/v1/analyze", AnalyzeRequest{}) // 400

	mu.Lock()
	lines := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	var records []map[string]any
	for lines.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(lines.Bytes(), &rec); err != nil {
			t.Fatalf("access log line is not JSON: %v: %s", err, lines.Text())
		}
		records = append(records, rec)
	}
	mu.Unlock()
	if len(records) != 2 {
		t.Fatalf("access log records = %d, want 2", len(records))
	}
	ok := records[0]
	if ok["request_id"] != wantID || ok["path"] != "/v1/analyze" ||
		ok["status"] != float64(http.StatusOK) || ok["outcome"] != "miss" || ok["verdict"] != "ok" {
		t.Errorf("first record = %v", ok)
	}
	if fp, _ := ok["fingerprint"].(string); len(fp) != 64 {
		t.Errorf("first record fingerprint = %v", ok["fingerprint"])
	}
	if bad := records[1]; bad["status"] != float64(http.StatusBadRequest) || bad["verdict"] != "bad_request" {
		t.Errorf("second record = %v", bad)
	}
}

type lockedWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func TestBatchTraceCarriesPerGrammarEntries(t *testing.T) {
	ts := newTestServer(t, Config{CacheBytes: 1 << 20})
	resp, _ := post(t, ts, "/v1/batch", BatchRequest{Grammars: []BatchGrammar{
		{Name: "a", Grammar: tinyGrammar},
		{Name: "b", Grammar: danglingElse},
	}})
	tr := fetchTrace(t, ts, resp.Header.Get("X-Repro-Request-Id"))
	if len(tr.Entries) != 2 {
		t.Fatalf("batch trace entries = %d, want 2", len(tr.Entries))
	}
	labels := map[string]bool{}
	for _, e := range tr.Entries {
		labels[e.Label] = true
	}
	if !labels["a.y"] || !labels["b.y"] {
		t.Errorf("batch entry labels = %v, want a.y and b.y", labels)
	}
}
