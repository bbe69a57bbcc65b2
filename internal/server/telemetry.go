package server

import (
	"context"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// traceKey carries the request's *telemetry.Trace through the context.
// computeContext uses context.WithoutCancel, which preserves values, so
// the trace survives the detachment from client cancellation and batch
// workers annotate the right request.
type traceKey struct{}

func withTrace(ctx context.Context, t *telemetry.Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// traceFrom returns the request's trace, or nil outside a request —
// every telemetry.Trace method is a no-op on nil, so callers annotate
// unconditionally.
func traceFrom(ctx context.Context) *telemetry.Trace {
	t, _ := ctx.Value(traceKey{}).(*telemetry.Trace)
	return t
}

// statusWriter captures the response status for the access log and the
// trace; Write without an explicit WriteHeader implies 200.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// endpointLabel maps a request path to the label its latency histogram
// is keyed by.  Unknown paths share one bucket so a scanner cannot
// grow the label set without bound.
func endpointLabel(path string) string {
	switch {
	case path == "/v1/analyze":
		return "analyze"
	case path == "/v1/lint":
		return "lint"
	case path == "/v1/batch":
		return "batch"
	case strings.HasPrefix(path, "/v1/peer/"):
		return "peer"
	case path == "/healthz":
		return "healthz"
	case path == "/readyz":
		return "readyz"
	case path == "/metricz":
		return "metricz"
	case strings.HasPrefix(path, "/debugz/"):
		return "debugz"
	default:
		return "other"
	}
}

// recordPipeline is the per-computation telemetry tap: it exports the
// recorder (closing open spans), feeds each span's wall time into the
// per-phase latency histograms, folds the counters into the server
// totals, and returns the span trees for the request's trace.
func (s *Server) recordPipeline(rec *obs.Recorder) []obs.SpanExport {
	data := rec.ExportData()
	var walk func(spans []obs.SpanExport)
	walk = func(spans []obs.SpanExport) {
		for _, sp := range spans {
			s.lat.Observe("phase/"+sp.Name, time.Duration(sp.WallNs))
			walk(sp.Children)
		}
	}
	walk(data.Phases)
	s.foldRecorder(rec)
	return data.Phases
}

// logAccess emits one structured access-log line per request.
func (s *Server) logAccess(r *http.Request, tr *telemetry.Trace, status int, latency time.Duration) {
	if s.cfg.AccessLog == nil {
		return
	}
	e := tr.Export()
	attrs := []slog.Attr{
		slog.String("request_id", e.ID),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Int64("latency_us", latency.Microseconds()),
		slog.String("verdict", e.Verdict),
	}
	if e.Outcome != "" {
		attrs = append(attrs, slog.String("outcome", e.Outcome))
	}
	if len(e.Entries) == 1 {
		attrs = append(attrs, slog.String("fingerprint", e.Entries[0].Fingerprint))
	} else if len(e.Entries) > 1 {
		attrs = append(attrs, slog.Int("grammars", len(e.Entries)))
	}
	s.cfg.AccessLog.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
}

// BuildInfo identifies the running binary in /healthz.
type BuildInfo struct {
	GoVersion string `json:"go_version,omitempty"`
	Module    string `json:"module,omitempty"`
	Revision  string `json:"revision,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}

// readBuildInfo extracts the fields worth reporting from the binary's
// embedded build metadata (absent in some test binaries — then only
// zero fields).
func readBuildInfo() BuildInfo {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return BuildInfo{}
	}
	out := BuildInfo{GoVersion: bi.GoVersion, Module: bi.Main.Path}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			out.Revision = kv.Value
		case "vcs.modified":
			out.Modified = kv.Value == "true"
		}
	}
	return out
}

// TracesResponse is the GET /debugz/traces body: summaries (no span
// trees) of the retained recent and slowest requests.
type TracesResponse struct {
	Schema  string                  `json:"schema"`
	Kind    string                  `json:"kind"` // "traces"
	Recent  []telemetry.TraceExport `json:"recent"`
	Slowest []telemetry.TraceExport `json:"slowest"`
}

// TraceResponse is the GET /debugz/traces/{id} body: one full trace
// with its span trees.
type TraceResponse struct {
	Schema string                `json:"schema"`
	Kind   string                `json:"kind"` // "trace"
	Trace  telemetry.TraceExport `json:"trace"`
}

// summarize exports traces for the list view, dropping the entry
// detail — the full tree is one GET /debugz/traces/{id} away.
func summarize(traces []*telemetry.Trace) []telemetry.TraceExport {
	out := make([]telemetry.TraceExport, 0, len(traces))
	for _, t := range traces {
		e := t.Export()
		e.Entries = nil
		out = append(out, e)
	}
	return out
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, TracesResponse{
		Schema: Schema, Kind: "traces",
		Recent:  summarize(s.ring.Recent()),
		Slowest: summarize(s.ring.Slowest()),
	})
}

func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr := s.ring.Get(id)
	if tr == nil {
		traceFrom(r.Context()).SetVerdict("not_found")
		s.writeJSON(w, http.StatusNotFound, ErrorResponse{
			Schema: Schema, Kind: "error",
			Error: ErrorPayload{Kind: "not_found", Message: "no retained trace with id " + id},
		})
		return
	}
	s.writeJSON(w, http.StatusOK, TraceResponse{Schema: Schema, Kind: "trace", Trace: tr.Export()})
}

// latencySummaries digests every registered histogram for the JSON
// /metricz body.
func (s *Server) latencySummaries() map[string]telemetry.Summary {
	snaps := s.lat.Snapshots()
	out := make(map[string]telemetry.Summary, len(snaps))
	for name, snap := range snaps {
		out[name] = snap.Summary()
	}
	return out
}

// writeProm renders /metricz in the Prometheus text exposition format.
// Histograms are grouped by the "scope/" prefix of their registry name:
// one metric family per scope, the remainder as the label.
func (s *Server) writeProm(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	s.mu.Lock()
	counters := make(map[string]float64, len(s.counters))
	for n, v := range s.counters {
		counters[n] = float64(v)
	}
	s.mu.Unlock()

	var b strings.Builder
	p := telemetry.NewProm(&b)
	p.Gauge("lalrd_uptime_seconds", "Seconds since the server started.", time.Since(s.start).Seconds())
	p.Gauge("lalrd_inflight_requests", "HTTP requests currently being served (this scrape included).",
		float64(s.inflightNow.Load()))
	p.Gauge("lalrd_max_inflight", "Configured admission bound (0 = unlimited).", float64(s.cfg.MaxInflight))
	p.CounterVec("lalrd_counter_total",
		"Server and pipeline counters (the obs cost model folded over every request).",
		"name", counters)
	p.CounterVec("lalrd_cache_events_total", "Cache lookups and maintenance by outcome.", "event",
		map[string]float64{
			"hit":       float64(st.Hits),
			"miss":      float64(st.Misses),
			"coalesced": float64(st.Shared),
			"eviction":  float64(st.Evictions),
			"rejected":  float64(st.Rejected),
		})
	p.Gauge("lalrd_cache_hit_ratio", "Fraction of lookups served without computing.", st.HitRatio())
	p.Gauge("lalrd_cache_entries", "Entries currently stored.", float64(st.Entries))
	p.Gauge("lalrd_cache_bytes", "Bytes currently stored.", float64(st.Bytes))
	p.Gauge("lalrd_cache_capacity_bytes", "Configured cache byte budget.", float64(st.Capacity))

	if s.cluster != nil {
		cst := s.cluster.Stats()
		p.Gauge("lalrd_cluster_members", "Fleet size, this node included.", float64(cst.Members))
		p.CounterVec("lalrd_peer_events_total",
			"Peer-layer events: fills, authoritative misses, degrades to local compute, "+
				"exchange errors, offers sent/failed.",
			"event", map[string]float64{
				"fill":       float64(cst.Fills),
				"not_found":  float64(cst.NotFound),
				"degrade":    float64(cst.Degrades),
				"error":      float64(cst.Errors),
				"offer":      float64(cst.Offers),
				"offer_fail": float64(cst.OfferFail),
			})
		// One gauge per breaker state per peer (1 = the peer is in that
		// state), the Prometheus idiom for state machines: alerting on
		// lalrd_peer_state{state="open"} == 1 needs no label math.
		states := map[string]float64{}
		trips := map[string]float64{}
		for _, ps := range cst.Peers {
			for _, state := range []string{"closed", "open", "half-open"} {
				v := 0.0
				if ps.State == state {
					v = 1
				}
				states[peerLabel(ps.Peer)+","+state] = v
			}
			trips[peerLabel(ps.Peer)] = float64(ps.Trips)
		}
		p.GaugeVec2("lalrd_peer_state", "Per-peer circuit breaker position (1 = current state).",
			"peer", "state", states)
		p.CounterVec("lalrd_peer_breaker_trips_total", "Circuit breaker trips per peer.", "peer", trips)
	}

	scopes := map[string]map[string]telemetry.Snapshot{}
	for name, snap := range s.lat.Snapshots() {
		scope, label, ok := strings.Cut(name, "/")
		if !ok {
			scope, label = "misc", name
		}
		if scopes[scope] == nil {
			scopes[scope] = map[string]telemetry.Snapshot{}
		}
		scopes[scope][label] = snap
	}
	for _, scope := range []struct{ key, name, help, label string }{
		{"endpoint", "lalrd_endpoint_duration_seconds", "Request latency by endpoint.", "endpoint"},
		{"phase", "lalrd_phase_duration_seconds", "Pipeline phase latency (obs span wall time).", "phase"},
		{"outcome", "lalrd_outcome_duration_seconds", "Single-computation request latency by cache outcome.", "outcome"},
		{"peer", "lalrd_peer_duration_seconds", "Peer exchange hop latency by remote peer.", "peer"},
	} {
		if snaps := scopes[scope.key]; len(snaps) > 0 {
			p.HistogramVec(scope.name, scope.help, scope.label, snaps)
		}
	}
	if err := p.Err(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", telemetry.PromContentType)
	w.Write([]byte(b.String()))
}
