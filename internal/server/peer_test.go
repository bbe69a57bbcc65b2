package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/frozen"
)

// verifyFRZ is the Verify hook production lalrd wires: decode + the
// claimed fingerprint must match the recorded one.
func verifyFRZ(fp string, raw []byte) error {
	t, err := frozen.Decode(raw)
	if err != nil {
		return err
	}
	if t.Fingerprint != fp {
		return fmt.Errorf("peer bytes record fingerprint %q, want %q", t.Fingerprint, fp)
	}
	return nil
}

// fleetNode is one test fleet member: its HTTP server, the Server, and
// the cluster handle (for ring lookups and direct stats).
type fleetNode struct {
	ts  *httptest.Server
	srv *Server
	cl  *cluster.Cluster
	url string
}

// newFleet boots n lalrd nodes on localhost that know each other
// through real HTTP transports.  Mutators tune each node's server and
// cluster configs before construction.
func newFleet(t testing.TB, n int, mutServer func(i int, cfg *Config), mutCluster func(i int, cfg *cluster.Config)) []*fleetNode {
	t.Helper()
	nodes := make([]*fleetNode, n)
	urls := make([]string, n)
	for i := range nodes {
		ts := httptest.NewUnstartedServer(http.NotFoundHandler())
		nodes[i] = &fleetNode{ts: ts, url: "http://" + ts.Listener.Addr().String()}
		urls[i] = nodes[i].url
	}
	for i, node := range nodes {
		ccfg := cluster.Config{
			Self:        node.url,
			Peers:       urls,
			Transport:   &cluster.HTTPTransport{},
			Verify:      verifyFRZ,
			PeerTimeout: 2 * time.Second,
		}
		if mutCluster != nil {
			mutCluster(i, &ccfg)
		}
		cl, err := cluster.New(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		scfg := Config{CacheBytes: 1 << 20, StoreDir: filepath.Join(t.TempDir(), "store"), Cluster: cl}
		if mutServer != nil {
			mutServer(i, &scfg)
		}
		srv := New(scfg)
		node.srv, node.cl = srv, cl
		node.ts.Config.Handler = srv
		node.ts.Start()
		srv.SetReady()
		t.Cleanup(func() {
			node.ts.Close() // stop traffic first, then the peer layer
			srv.Close()
		})
	}
	return nodes
}

// grammarOwnedBy finds a tinyGrammar variant (same language, distinct
// fingerprint) whose ring owner is the given node.
func grammarOwnedBy(t *testing.T, cl *cluster.Cluster, owner string) (src, fp string) {
	t.Helper()
	srcs := grammarsOwnedBy(t, cl, owner, 1)
	return srcs[0], repro.Fingerprint(srcs[0], repro.Options{})
}

// grammarsOwnedBy finds n distinct tinyGrammar variants whose ring
// owner is the given node.
func grammarsOwnedBy(t *testing.T, cl *cluster.Cluster, owner string, n int) []string {
	t.Helper()
	var srcs []string
	for i := 0; i < 256 && len(srcs) < n; i++ {
		src := tinyGrammar + strings.Repeat("\n", i)
		if cl.Owner(repro.Fingerprint(src, repro.Options{})) == owner {
			srcs = append(srcs, src)
		}
	}
	if len(srcs) < n {
		t.Fatalf("found %d grammar variants owned by %s, want %d", len(srcs), owner, n)
	}
	return srcs
}

// TestPeerTableEndpoints covers the peer-exchange HTTP surface
// directly: GET serves stored bytes, 404s an absent fingerprint, PUT
// accepts valid offers and rejects corrupt or lying ones.
func TestPeerTableEndpoints(t *testing.T) {
	ts := newTestServer(t, Config{CacheBytes: 1 << 20, StoreDir: filepath.Join(t.TempDir(), "store")})
	resp, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d", resp.StatusCode)
	}
	fp := repro.Fingerprint(tinyGrammar, repro.Options{})

	resp, raw := get(t, ts, "/v1/peer/table/"+fp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer GET status = %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("peer GET content type = %q", ct)
	}
	if resp.ContentLength != int64(len(raw)) {
		t.Fatalf("peer GET Content-Length = %d, want the record's %d bytes", resp.ContentLength, len(raw))
	}
	if err := verifyFRZ(fp, raw); err != nil {
		t.Fatalf("served bytes do not verify: %v", err)
	}

	absent := strings.Repeat("0", 64)
	if resp, _ := get(t, ts, "/v1/peer/table/"+absent); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent table status = %d, want 404", resp.StatusCode)
	}

	// Offer the table to a second, empty node; it must serve frozen.
	ts2 := newTestServer(t, Config{StoreDir: filepath.Join(t.TempDir(), "store")})
	req, err := http.NewRequest(http.MethodPut, ts2.URL+"/v1/peer/table/"+fp, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusNoContent {
		t.Fatalf("peer PUT status = %d, want 204", putResp.StatusCode)
	}
	resp2, body2 := post(t, ts2, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Repro-Cache") != "frozen" {
		t.Fatalf("offered node served status %d outcome %q, want 200 frozen: %s",
			resp2.StatusCode, resp2.Header.Get("X-Repro-Cache"), body2)
	}

	// A corrupt offer must be rejected and plant nothing.
	mut := append([]byte(nil), raw...)
	mut[len(mut)/2] ^= 0x40
	req, err = http.NewRequest(http.MethodPut, ts2.URL+"/v1/peer/table/"+absent, bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	badResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt offer status = %d, want 400", badResp.StatusCode)
	}

	// An offer claiming more than frozen.MaxRecordBytes is refused
	// before its body is read.
	conn, err := net.Dial("tcp", ts2.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "PUT /v1/peer/table/%s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n", absent, frozen.MaxRecordBytes+1)
	bigResp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	bigResp.Body.Close()
	if bigResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized offer status = %d, want 400", bigResp.StatusCode)
	}
	if m := metricz(t, ts2); m.Counters["peer_offers_rejected"] != 2 || m.Counters["peer_offers_accepted"] != 1 {
		t.Fatalf("offer counters = %v", m.Counters)
	}
}

// TestStalledOfferHoldsNoMemory: an offer's buffer grows only as its
// bytes arrive.  A sender that declares a record of the full bound and
// sends four bytes before closing costs the owner well under a
// megabyte, over the whole exchange up to its 400; an offer sized from
// its declared length would cost the whole bound per connection.
func TestStalledOfferHoldsNoMemory(t *testing.T) {
	ts := newTestServer(t, Config{StoreDir: filepath.Join(t.TempDir(), "store")})
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fmt.Fprintf(conn, "PUT /v1/peer/table/%s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\nFRZ1",
		strings.Repeat("0", 64), frozen.MaxRecordBytes)
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	runtime.ReadMemStats(&m1)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short offer status = %d, want 400", resp.StatusCode)
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("a stalled offer declaring %d bytes allocated %d bytes, want under 1 MiB", frozen.MaxRecordBytes, alloc)
	}
}

// TestPeerGetQuarantinesCorruptFile: corruption discovered while
// serving a sibling is quarantined exactly like one found locally.
func TestPeerGetQuarantinesCorruptFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	ts := newTestServer(t, Config{CacheBytes: 1 << 20, StoreDir: dir})
	post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
	fp := repro.Fingerprint(tinyGrammar, repro.Options{})

	p := filepath.Join(dir, fp+".frz")
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if resp, _ := get(t, ts, "/v1/peer/table/"+fp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("corrupt table GET status = %d, want 404", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, fp+".corrupt")); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if m := metricz(t, ts); m.Counters["frozen_quarantined"] != 1 {
		t.Fatalf("frozen_quarantined = %d, want 1", m.Counters["frozen_quarantined"])
	}
}

// TestQuarantineAndRefreezeOnServe: a corrupt frozen table found on
// the serving path is quarantined, the request recomputes and serves
// identically, and the fresh result re-freezes a clean table.
func TestQuarantineAndRefreezeOnServe(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	// CacheBytes 0: every request walks the compute closure, so the
	// store is consulted each time.
	ts := newTestServer(t, Config{CacheBytes: 0, StoreDir: dir})
	resp1, body1 := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first status = %d", resp1.StatusCode)
	}
	fp := repro.Fingerprint(tinyGrammar, repro.Options{})
	p := filepath.Join(dir, fp+".frz")

	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), raw...)
	mut[len(mut)/2] ^= 0x40
	if err := os.WriteFile(p, mut, 0o644); err != nil {
		t.Fatal(err)
	}

	resp2, body2 := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-corruption status = %d: %s", resp2.StatusCode, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("recomputed body differs from the original")
	}
	if out := resp2.Header.Get("X-Repro-Cache"); out != "miss" {
		t.Fatalf("post-corruption outcome = %q, want miss (recomputed)", out)
	}
	if _, err := os.Stat(filepath.Join(dir, fp+".corrupt")); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if fresh, err := os.ReadFile(p); err != nil || !bytes.Equal(fresh, raw) {
		t.Fatalf("store was not re-frozen cleanly after recompute (err=%v, identical=%t)",
			err, bytes.Equal(fresh, raw))
	}
	m := metricz(t, ts)
	if m.Counters["frozen_quarantined"] != 1 {
		t.Fatalf("frozen_quarantined = %d, want 1", m.Counters["frozen_quarantined"])
	}

	// The re-frozen table serves the third request.
	resp3, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
	if out := resp3.Header.Get("X-Repro-Cache"); out != "frozen" {
		t.Fatalf("post-refreeze outcome = %q, want frozen", out)
	}
}

// TestClusterPeerFill is the warm fleet path end to end over real
// HTTP: a storeless node computes, offers the table to its ring owner,
// and its next cold miss fills from that peer (X-Repro-Cache: peer)
// byte-identically.
func TestClusterPeerFill(t *testing.T) {
	nodes := newFleet(t, 2,
		func(i int, cfg *Config) {
			if i == 0 {
				// Node 0: no memory cache, no store — every request walks
				// the closure, and only the fleet can make it warm.
				cfg.CacheBytes = 0
				cfg.StoreDir = ""
			}
		},
		nil)
	a, b := nodes[0], nodes[1]
	src, _ := grammarOwnedBy(t, a.cl, b.url)

	resp1, body1 := post(t, a.ts, "/v1/analyze", AnalyzeRequest{Grammar: src})
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Repro-Cache") != "miss" {
		t.Fatalf("first request: status %d outcome %q, want 200 miss",
			resp1.StatusCode, resp1.Header.Get("X-Repro-Cache"))
	}
	// The offer to the owner is async; wait for it to land.  The owner
	// counts an accepted offer only after the record is stored, so the
	// counter, not the record, is what the wait polls: a record seen
	// before its count would fail the counter assertion below.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if metricz(t, b.ts).Counters["peer_offers_accepted"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("offered table never landed on the ring owner")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp2, body2 := post(t, a.ts, "/v1/analyze", AnalyzeRequest{Grammar: src})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request status = %d", resp2.StatusCode)
	}
	if out := resp2.Header.Get("X-Repro-Cache"); out != "peer" {
		t.Fatalf("second request outcome = %q, want peer", out)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("peer-filled body differs from the computed one")
	}
	m := metricz(t, a.ts)
	if m.Counters["peer_fills"] < 1 {
		t.Fatalf("peer_fills = %d, want >= 1", m.Counters["peer_fills"])
	}
	if m.Cluster == nil || m.Cluster.Fills < 1 {
		t.Fatalf("cluster stats missing fills: %+v", m.Cluster)
	}
	if mb := metricz(t, b.ts); mb.Counters["peer_offers_accepted"] < 1 || mb.Counters["peer_serves"] < 1 {
		t.Fatalf("owner counters = %v, want an accepted offer and a serve", mb.Counters)
	}
}

// TestClusterPartitionEquivalence is the acceptance property: with
// every peer exchange faulted, every request still succeeds as a plain
// local miss, byte-identical to a single-node server — and once the
// fault clears, the breaker recovers through an observable half-open
// probe.
func TestClusterPartitionEquivalence(t *testing.T) {
	single := newTestServer(t, Config{CacheBytes: 1 << 20})
	nodes := newFleet(t, 2, nil, func(i int, cfg *cluster.Config) {
		cfg.BreakerFailures = 2
		cfg.BreakerCooldown = 100 * time.Millisecond
	})
	a, b := nodes[0], nodes[1]

	restore := cluster.InjectFault(&cluster.Fault{Mode: cluster.FaultError})
	partitioned := true
	defer func() {
		if partitioned {
			restore()
		}
	}()

	// Variants a owns never reach the network, so every grammar here
	// is b's: each fetch is an exchange the partition fails, and the
	// recovery request below is the half-open probe.
	grammars := grammarsOwnedBy(t, a.cl, b.url, 4)
	for i, src := range grammars[:3] {
		want, wantBody := post(t, single, "/v1/analyze", AnalyzeRequest{Grammar: src})
		resp, body := post(t, a.ts, "/v1/analyze", AnalyzeRequest{Grammar: src})
		if want.StatusCode != http.StatusOK || resp.StatusCode != http.StatusOK {
			t.Fatalf("grammar %d: single=%d partitioned=%d, want 200/200", i, want.StatusCode, resp.StatusCode)
		}
		if out := resp.Header.Get("X-Repro-Cache"); out != "miss" {
			t.Fatalf("grammar %d under partition: outcome %q, want miss", i, out)
		}
		if !bytes.Equal(wantBody, body) {
			t.Fatalf("grammar %d: partitioned body differs from single-node body", i)
		}
	}
	m := metricz(t, a.ts)
	if m.Cluster == nil || len(m.Cluster.Peers) != 1 {
		t.Fatalf("cluster stats = %+v, want one remote peer", m.Cluster)
	}
	if st := m.Cluster.Peers[0]; st.State != "open" || st.Trips < 1 {
		t.Fatalf("peer breaker under partition = %+v, want open with >=1 trip", st)
	}
	if m.Counters["peer_degrades"] < 1 {
		t.Fatalf("peer_degrades = %d, want >= 1", m.Counters["peer_degrades"])
	}

	// The partition heals; after the cooldown, the next fetch is the
	// half-open probe (the peer's authoritative 404 is a success), and
	// the breaker closes.
	restore()
	partitioned = false
	time.Sleep(150 * time.Millisecond)
	if resp, _ := post(t, a.ts, "/v1/analyze", AnalyzeRequest{Grammar: grammars[3]}); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery status = %d", resp.StatusCode)
	}
	m = metricz(t, a.ts)
	if st := m.Cluster.Peers[0]; st.State != "closed" || st.Probes < 1 {
		t.Fatalf("peer breaker after recovery = %+v, want closed with >=1 probe", st)
	}

	// The breaker's journey is visible in the Prometheus exposition.
	resp, prom := get(t, a.ts, "/metricz?format=prom")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prom status = %d", resp.StatusCode)
	}
	for _, want := range []string{"lalrd_peer_state", "lalrd_peer_events_total", "lalrd_peer_breaker_trips_total"} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("prom exposition missing %s", want)
		}
	}
}

// TestReadyzLifecycle: /readyz answers 503 before SetReady and after
// BeginDrain, 200 in between; /healthz stays 200 throughout (liveness
// is not readiness).
func TestReadyzLifecycle(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	assertReadyz := func(wantCode int, wantStatus string) {
		t.Helper()
		resp, body := get(t, ts, "/readyz")
		if resp.StatusCode != wantCode || !strings.Contains(string(body), wantStatus) {
			t.Fatalf("/readyz = %d %s, want %d %q", resp.StatusCode, body, wantCode, wantStatus)
		}
		if h, _ := get(t, ts, "/healthz"); h.StatusCode != http.StatusOK {
			t.Fatalf("/healthz = %d, want 200 always", h.StatusCode)
		}
	}
	assertReadyz(http.StatusServiceUnavailable, "starting")
	srv.SetReady()
	assertReadyz(http.StatusOK, "ready")
	srv.BeginDrain()
	assertReadyz(http.StatusServiceUnavailable, "draining")
	if !srv.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}
}

// TestDrainUnderLoad pins the graceful-drain contract: while a request
// is genuinely inflight, (1) an over-admission request gets 429 with
// Retry-After, (2) BeginDrain flips /readyz to 503 BEFORE the inflight
// request finishes, and (3) the inflight request then completes 200.
func TestDrainUnderLoad(t *testing.T) {
	srv := New(Config{CacheBytes: 1 << 20, MaxInflight: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	srv.SetReady()

	// Occupy the singleflight slot for tinyGrammar's key so the HTTP
	// request below blocks inside its handler, deterministically
	// inflight until the test releases it.
	fp := repro.Fingerprint(tinyGrammar, repro.Options{})
	key := cache.Key("analyze", fp, "grammar.y")
	block := make(chan struct{})
	started := make(chan struct{})
	go func() {
		srv.cache.GetOrCompute(key, func() ([]byte, error) {
			close(started)
			<-block
			return []byte("{}\n"), nil
		})
	}()
	<-started

	type result struct {
		status  int
		outcome string
	}
	inflightDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
			strings.NewReader(fmt.Sprintf(`{"grammar": %q}`, tinyGrammar)))
		if err != nil {
			inflightDone <- result{}
			return
		}
		resp.Body.Close()
		inflightDone <- result{resp.StatusCode, resp.Header.Get("X-Repro-Cache")}
	}()

	// Wait until that request holds the one admission slot.
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.inflight) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never took the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	// (1) Admission beyond max-inflight: 429 with Retry-After.
	resp, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: danglingElse})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-admission status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without a Retry-After header")
	}

	// (2) Drain flips readiness while the request is still inflight.
	srv.BeginDrain()
	if r, body := get(t, ts, "/readyz"); r.StatusCode != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "draining") {
		t.Fatalf("/readyz during drain = %d %s, want 503 draining", r.StatusCode, body)
	}
	select {
	case r := <-inflightDone:
		t.Fatalf("inflight request finished before the drain assertion: %+v", r)
	default:
	}

	// (3) The inflight request completes normally.
	close(block)
	r := <-inflightDone
	if r.status != http.StatusOK || r.outcome != "coalesced" {
		t.Fatalf("drained inflight request = %+v, want 200 coalesced", r)
	}
}
