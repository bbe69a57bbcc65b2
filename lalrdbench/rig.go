package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/frozen"
	"repro/internal/server"
)

// cacheBytes is the response-cache budget of every node.  It is small
// enough that setup fills it past its budget in about a second, so the
// timed phase always runs against a full, evicting cache.
const cacheBytes = 8 << 20

// node is one in-process lalrd: a loopback listener and an http.Server
// in front of the current *server.Server.  The analyze-peer requester
// is rebuilt between passes, so the handler loads it atomically.
type node struct {
	url   string
	addr  string
	conn  net.Conn      // the client's keep-alive connection to the node
	br    *bufio.Reader // reads responses from conn
	hs    *http.Server
	done  chan error
	srv   atomic.Pointer[server.Server]
	cl    *cluster.Cluster // the current server's peer layer; nil on a single node
	store string           // the node's frozen-store directory; "" for none
	// tap, in the traced run, receives one sample per traced POST after
	// the server's ServeHTTP has returned (its trace is then retained).
	tap   chan handled
	probe *probe
}

// handled is the server-side time and allocation of one request.
type handled struct {
	d     time.Duration
	alloc uint64
}

func (n *node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	srv := n.srv.Load()
	if n.probe == nil || !n.probe.active.Load() || r.Method != http.MethodPost {
		srv.ServeHTTP(w, r)
		return
	}
	a0 := totalAlloc()
	t0 := time.Now()
	srv.ServeHTTP(w, r)
	d := time.Since(t0)
	n.tap <- handled{d: d, alloc: totalAlloc() - a0}
}

// rig is one set-up benchmark environment: the nodes, the client
// connections, the references and the workload's op sequence.
type rig struct {
	w     *workload
	seed  uint64
	dir   string
	refs  []*ref
	nodes []*node // nodes[0] receives every timed op
	peers []string
	buf   []byte       // request body, reused across ops
	req   []byte       // request head and body as written, reused
	resp  bytes.Buffer // response body, reused across ops
	// peerNonce holds, per corpus grammar, the nonce whose fingerprint
	// the owner node (nodes[1]) holds, for analyze-peer.
	peerNonce []string
	probe     *probe // traced run only
	// mangle, when set (tests), may corrupt response op i's body before
	// it is checked.
	mangle func(i int, body []byte)
	ops    int

	logMu   sync.Mutex
	logs    int
	lastLog string
}

// newRig boots the workload's nodes and builds its references; prepare
// then fills and warms them.
func newRig(w *workload, seed uint64, dir string, traced bool) (*rig, error) {
	r := &rig{
		w: w, seed: seed, dir: dir,
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if traced {
		r.probe = newProbe()
		if err := r.probe.openStore(dir); err != nil {
			return nil, err
		}
	}
	paths := []string{w.path}
	if w.fill && w.path != "/v1/analyze" {
		paths = append(paths, "/v1/analyze")
	}
	var err error
	if r.refs, err = buildRefs(loadCorpus(), paths); err != nil {
		r.close()
		return nil, fmt.Errorf("references: %w", err)
	}
	n := 1
	if w.peer {
		n = 2
	}
	lns := make([]net.Listener, n)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, ln := range lns[:i] {
				ln.Close()
			}
			r.close()
			return nil, err
		}
		r.peers = append(r.peers, "http://"+lns[i].Addr().String())
	}
	for i, ln := range lns {
		nd := &node{url: r.peers[i], addr: ln.Addr().String(), done: make(chan error, 1)}
		if !w.peer || i > 0 {
			nd.store = filepath.Join(dir, fmt.Sprintf("store-%d", i))
		}
		if traced && i == 0 {
			nd.tap, nd.probe = make(chan handled, 1), r.probe
		}
		if err := r.boot(nd); err != nil {
			for _, ln := range lns[i:] {
				ln.Close()
			}
			r.close()
			return nil, err
		}
		nd.hs = &http.Server{Handler: nd}
		go func() { nd.done <- nd.hs.Serve(ln) }()
		r.nodes = append(r.nodes, nd)
	}
	return r, nil
}

// boot gives a node a fresh server (empty cache) over its store.
func (r *rig) boot(nd *node) error {
	var cl *cluster.Cluster
	if len(r.peers) > 1 {
		cfg := cluster.Config{
			Self: nd.url, Peers: r.peers,
			Transport: &cluster.HTTPTransport{}, Verify: verifyFrozen, Logf: r.logf,
		}
		if nd.probe != nil {
			cfg.Transport = &tapTransport{next: cfg.Transport, p: r.probe}
			cfg.Verify = r.probe.verify
		}
		var err error
		if cl, err = cluster.New(cfg); err != nil {
			return err
		}
	}
	srv := server.New(server.Config{
		CacheBytes: cacheBytes,
		StoreDir:   nd.store,
		Cluster:    cl,
		Logf:       r.logf,
		// lalrd's default text access log, discarded.
		AccessLog: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	srv.SetReady()
	if old := nd.srv.Swap(srv); old != nil {
		old.Close()
	}
	nd.cl = cl
	return nil
}

// verifyFrozen is lalrd's peer byte validator: a decodable FRZ record
// carrying the fingerprint that was asked for.
func verifyFrozen(fp string, raw []byte) error {
	t, err := frozen.Decode(raw)
	if err != nil {
		return err
	}
	if t.Fingerprint != fp {
		return fmt.Errorf("peer bytes record fingerprint %q, want %q", t.Fingerprint, fp)
	}
	return nil
}

// logf collects server diagnostics; a healthy run emits none.
func (r *rig) logf(format string, args ...any) {
	r.logMu.Lock()
	r.logs++
	r.lastLog = fmt.Sprintf(format, args...)
	r.logMu.Unlock()
}

// close stops the nodes, waits for their goroutines, and removes the
// rig's directory.
func (r *rig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, nd := range r.nodes {
		nd.hangUp()
		nd.hs.Shutdown(ctx)
		<-nd.done
	}
	for _, nd := range r.nodes {
		nd.srv.Load().Close()
	}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections() // the peer layer's client
	}
	os.RemoveAll(r.dir)
}

// prepare fills and warms the rig, so the timed phase starts in steady
// state: the cache full and evicting (analyze-hot's also holding the
// corpus), the owner node holding every peer table, and the process
// past its first passes.
func (r *rig) prepare() error {
	w := r.w
	if w.fill {
		var passBytes int
		for _, ref := range r.refs {
			passBytes += len(ref.body["/v1/analyze"])
		}
		passes := (2*cacheBytes + passBytes - 1) / passBytes
		for p := range passes {
			if err := r.pass(streamFill, uint64(p), "/v1/analyze", "miss", nil); err != nil {
				return fmt.Errorf("cache fill: %w", err)
			}
		}
		m, err := r.metricz(r.nodes[0])
		if err != nil {
			return err
		}
		if m.Cache.Evictions == 0 {
			return fmt.Errorf("cache fill: %d of %d bytes cached and nothing evicted", m.Cache.Bytes, m.Cache.Capacity)
		}
	}
	switch {
	case w.peer:
		if err := r.choosePeerNonces(); err != nil {
			return err
		}
		owner := r.nodes[1]
		for _, ref := range r.refs {
			r.buf = ref.appendBody(r.buf[:0], "/v1/analyze", r.peerNonce[ref.idx])
			if _, err := r.do(owner, ref, "/v1/analyze", "miss"); err != nil {
				return fmt.Errorf("owner pre-fill: %w", err)
			}
		}
	case !w.nonce: // analyze-hot: cache the base corpus
		if err := r.pass(streamBase, 0, w.path, "miss", nil); err != nil {
			return fmt.Errorf("caching the corpus: %w", err)
		}
	}
	for p := range w.warm {
		if err := r.pass(streamWarm, uint64(p), w.path, w.outcome, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.GC()
	return nil
}

// choosePeerNonces picks, per grammar, the first seeded nonce whose
// fingerprint the ring places on the owner node, so every analyze-peer
// op is a fill from that node.
func (r *rig) choosePeerNonces() error {
	cl := r.nodes[0].cl
	r.peerNonce = make([]string, len(r.refs))
	for i, ref := range r.refs {
		for k := uint64(0); ; k++ {
			if k == 1000 {
				return fmt.Errorf("%s: no nonce owned by %s", ref.Name, r.peers[1])
			}
			nc := nonce(r.seed, streamPeer, uint64(i), k)
			if cl.Owner(cache.Fingerprint(ref.source(nc), methodName)) == r.peers[1] {
				r.peerNonce[i] = nc
				break
			}
		}
	}
	return nil
}

// tally accumulates the timed windows of a phase.
type tally struct {
	ops, failed int
	passes      []window // one timed window per pass
	lat         []float64
	firstErr    error
}

// pass sends one corpus pass in seeded order.  Housekeeping between
// passes is untimed: the target's store, if any, is emptied (every
// nonce'd op would otherwise leave a file behind), and the analyze-peer
// requester gets a fresh, empty server.  With t nil the pass is untimed
// and any failure is an error; with t set, failures are counted.
func (r *rig) pass(stream, p uint64, path, outcome string, t *tally) error {
	target := r.nodes[0]
	if err := clearDir(target.store); err != nil {
		return err
	}
	if r.probe != nil {
		if err := clearDir(r.probe.store.Dir()); err != nil {
			return err
		}
	}
	if r.w.peer {
		if err := r.boot(target); err != nil {
			return err
		}
	}
	ord := order(r.seed, stream, p, len(r.refs))
	var s0 sample
	if t != nil {
		s0 = takeSample()
	}
	for i, gi := range ord {
		ref := r.refs[gi]
		nc := ""
		switch {
		case stream == streamFill || r.w.nonce && !r.w.peer:
			nc = nonce(r.seed, stream, p, uint64(i))
		case r.w.peer:
			nc = r.peerNonce[gi]
		}
		r.buf = ref.appendBody(r.buf[:0], path, nc)
		if t == nil {
			if _, err := r.do(target, ref, path, outcome); err != nil {
				return err
			}
			continue
		}
		var err error
		var d time.Duration
		if r.probe != nil && stream == streamTraced {
			d, err = r.tracedOp(target, ref, path, outcome)
		} else {
			d, err = r.do(target, ref, path, outcome)
		}
		t.ops++
		t.lat = append(t.lat, float64(d)/float64(time.Millisecond))
		if err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = err
			}
		}
	}
	if t != nil {
		t.passes = append(t.passes, takeSample().sub(s0))
	}
	if r.probe != nil && stream == streamTraced && target.cl != nil {
		// Each pass has its own requester, so its peer layer's
		// counters are exactly this pass's.
		r.probe.addCluster(target.cl.Stats())
	}
	return nil
}

// do sends the op in r.buf and checks its response: status 200, the
// expected X-Repro-Cache outcome, and the body byte-identical to the
// reference with the fingerprint masked.  It returns the request's
// latency, the check excluded.
func (r *rig) do(nd *node, ref *ref, path, outcome string) (time.Duration, error) {
	t0 := time.Now()
	status, out, _, err := r.post(nd, path, r.buf)
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("%s: %w", ref.Name, err)
	}
	return d, r.check(ref, path, outcome, status, out)
}

func (r *rig) check(ref *ref, path, outcome string, status int, out string) error {
	got := r.resp.Bytes()
	r.ops++
	if r.mangle != nil {
		r.mangle(r.ops-1, got)
	}
	switch {
	case status != http.StatusOK:
		return fmt.Errorf("%s: status %d: %.200s", ref.Name, status, got)
	case out != outcome:
		return fmt.Errorf("%s: X-Repro-Cache %q, want %q", ref.Name, out, outcome)
	case !sameBody(got, ref.body[path], ref.fpOff[path]):
		return fmt.Errorf("%s: body differs from the library reference", ref.Name)
	}
	return nil
}

// post sends one request and reads the whole response into r.resp.
func (r *rig) post(nd *node, path string, body []byte) (status int, outcome, id string, err error) {
	res, err := r.roundTrip(nd, http.MethodPost, path, body)
	if err != nil {
		return 0, "", "", err
	}
	return res.StatusCode, res.Header.Get("X-Repro-Cache"), res.Header.Get("X-Repro-Request-Id"), nil
}

// roundTrip sends one request over the client's keep-alive connection
// to the node and reads the whole response body into r.resp.  It is
// written and read on the calling goroutine: net/http's client would
// add a connection pool and two goroutine hand-offs per request to what
// an op measures.
func (r *rig) roundTrip(nd *node, method, path string, body []byte) (*http.Response, error) {
	if nd.conn == nil {
		c, err := net.Dial("tcp", nd.addr)
		if err != nil {
			return nil, err
		}
		nd.conn, nd.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	r.req = fmt.Appendf(r.req[:0], "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		method, path, nd.addr, len(body))
	r.req = append(r.req, body...)
	if _, err := nd.conn.Write(r.req); err != nil {
		nd.hangUp()
		return nil, err
	}
	res, err := http.ReadResponse(nd.br, nil)
	if err != nil {
		nd.hangUp()
		return nil, err
	}
	r.resp.Reset()
	_, err = r.resp.ReadFrom(res.Body)
	res.Body.Close()
	if err != nil || res.Close {
		nd.hangUp()
	}
	return res, err
}

// hangUp closes the client's op connection to the node, if any.
func (nd *node) hangUp() {
	if nd.conn != nil {
		nd.conn.Close()
		nd.conn, nd.br = nil, nil
	}
}

// get fetches a JSON document from a node.
func (r *rig) get(nd *node, path string, into any) error {
	res, err := r.roundTrip(nd, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, res.StatusCode)
	}
	return json.Unmarshal(r.resp.Bytes(), into)
}

func (r *rig) metricz(nd *node) (*server.MetriczResponse, error) {
	var m server.MetriczResponse
	return &m, r.get(nd, "/metricz", &m)
}

// clearDir removes every entry of dir, keeping dir itself; "" is no
// directory.
func clearDir(dir string) error {
	if dir == "" {
		return nil
	}
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}
