package server

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/frozen"
)

// SetReady marks the server ready for traffic: /readyz starts
// answering 200.  cmd/lalrd calls it once the listener is bound (and,
// in a fleet, after the cluster is wired) — a load balancer that polls
// /readyz never routes to a node that cannot serve yet.
func (s *Server) SetReady() { s.ready.Store(true) }

// BeginDrain marks the server draining: /readyz flips to 503 while
// /healthz stays 200 (the process is alive, it just wants no NEW
// work).  cmd/lalrd calls it on SIGTERM/SIGINT before http.Server
// Shutdown, so the balancer stops routing while inflight requests
// finish.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close releases resources the Server owns — today the cluster peer
// layer (waits for inflight offers).  Call after the HTTP server has
// drained; safe on a Server without a cluster, safe twice.
func (s *Server) Close() {
	if s.cluster != nil {
		s.cluster.Close()
	}
}

// ReadyzResponse is the GET /readyz body.
type ReadyzResponse struct {
	Schema string `json:"schema"`
	Kind   string `json:"kind"`   // "readyz"
	Status string `json:"status"` // "ready" | "starting" | "draining"
}

// handleReadyz serves GET /readyz — readiness, distinct from /healthz
// liveness: 503 before SetReady (booting) and after BeginDrain
// (shutting down), 200 in between.  Balancers poll this; orchestrators
// poll /healthz.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status, code := "ready", http.StatusOK
	switch {
	case s.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case !s.ready.Load():
		status, code = "starting", http.StatusServiceUnavailable
	}
	if code != http.StatusOK {
		// Both states end: draining in one grace period, starting as
		// soon as the listener binds.
		w.Header().Set("Retry-After", "1")
	}
	s.writeJSON(w, code, ReadyzResponse{Schema: Schema, Kind: "readyz", Status: status})
}

// handlePeerGet serves GET /v1/peer/table/{fp}: the raw FRZ1 bytes for
// a fingerprint, 404 when this node does not have them.  Peer traffic
// bypasses admission control — it is a disk read serving a sibling's
// cache fill, not an analysis — and a corrupt file found here is
// quarantined exactly like one found on the local serving path.  The
// record is read into a pooled buffer, which goes back to the pool once
// written, and the answer carries its Content-Length, so the fetching
// sibling reads it into one allocation of the right size.
func (s *Server) handlePeerGet(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if s.store == nil {
		s.peerNotFound(w, r, "no frozen store on this node")
		return
	}
	buf := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(buf)
	raw, err := s.store.AppendBytes((*buf)[:0], fp)
	*buf = raw
	switch {
	case err == nil:
		s.addCounter("peer_serves", 1)
		traceFrom(r.Context()).SetVerdict("peer_serve")
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
		w.Write(raw)
	case errors.Is(err, frozen.ErrCorrupt):
		s.addCounter("frozen_quarantined", 1)
		s.logf("frozen table %s corrupt (found serving a peer), quarantining: %v", fp, err)
		if qerr := s.store.Quarantine(fp); qerr != nil {
			s.logf("frozen quarantine %s: %v", fp, qerr)
		}
		s.peerNotFound(w, r, "table was corrupt and has been quarantined")
	case errors.Is(err, frozen.ErrNotFound):
		s.peerNotFound(w, r, "table not in store")
	default:
		s.addCounter("peer_serve_errors", 1)
		traceFrom(r.Context()).SetVerdict("peer_error")
		s.writeJSON(w, http.StatusInternalServerError, ErrorResponse{
			Schema: Schema, Kind: "error",
			Error: ErrorPayload{Kind: "internal", Message: "frozen store read failed"},
		})
	}
}

// peerNotFound is the authoritative miss answer: the fetching sibling
// maps 404 to cluster.ErrNotFound, a breaker success.
func (s *Server) peerNotFound(w http.ResponseWriter, r *http.Request, msg string) {
	s.addCounter("peer_serve_misses", 1)
	traceFrom(r.Context()).SetVerdict("peer_miss")
	s.writeJSON(w, http.StatusNotFound, ErrorResponse{
		Schema: Schema, Kind: "error",
		Error: ErrorPayload{Kind: "not_found", Message: msg},
	})
}

// handlePeerPut serves PUT /v1/peer/table/{fp}: a sibling offering
// frozen bytes to this node (the ring owner).  Unlike a fill, an offer
// is not sized from its Content-Length: this route is on the public
// mux, so the buffer grows only as bytes arrive and a sender that
// declares a large record and stalls holds nothing it has not sent.  A
// declared length past frozen.MaxRecordBytes is refused unread, and the
// read stops at the bound.  The bytes are fully validated by the store
// before landing — a corrupt or lying offer is a 400, never a planted
// table.
func (s *Server) handlePeerPut(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if s.store == nil {
		s.peerNotFound(w, r, "no frozen store on this node")
		return
	}
	if r.ContentLength > frozen.MaxRecordBytes {
		s.addCounter("peer_offers_rejected", 1)
		s.badRequest(w, r, "offered table of %d bytes exceeds the %d-byte bound", r.ContentLength, frozen.MaxRecordBytes)
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, frozen.MaxRecordBytes))
	if err != nil {
		s.addCounter("peer_offers_rejected", 1)
		s.badRequest(w, r, "reading offered table: %v", err)
		return
	}
	if err := s.store.PutBytes(fp, raw); err != nil {
		s.addCounter("peer_offers_rejected", 1)
		traceFrom(r.Context()).SetVerdict("peer_offer_rejected")
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Schema: Schema, Kind: "error",
			Error: ErrorPayload{Kind: "bad_request", Message: "offered table rejected: " + err.Error()},
		})
		return
	}
	s.addCounter("peer_offers_accepted", 1)
	traceFrom(r.Context()).SetVerdict("peer_offer")
	w.WriteHeader(http.StatusNoContent)
}

// peerLabel reduces a peer base URL to a histogram/metrics label
// ("http://127.0.0.1:7071" -> "127.0.0.1:7071").
func peerLabel(peer string) string {
	if i := strings.Index(peer, "://"); i >= 0 {
		peer = peer[i+3:]
	}
	return strings.TrimSuffix(peer, "/")
}

// observePeer is the cluster's hop-latency tap (wired in New): every
// exchange lands in a per-peer histogram, exported as
// lalrd_peer_duration_seconds.
func (s *Server) observePeer(peer string, d time.Duration) {
	s.lat.Observe("peer/"+peerLabel(peer), d)
}
