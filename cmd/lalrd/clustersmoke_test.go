package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/cliguard"
	"repro/internal/cluster"
	"repro/internal/grammars"
	"repro/internal/server"
)

// smokeNode is one fleet member of the cluster smoke: its listener,
// HTTP server, lalrd Server and peer layer.
type smokeNode struct {
	url string
	hs  *http.Server
	srv *server.Server
	cl  *cluster.Cluster
}

// TestClusterSmoke drives the fleet story end to end on localhost: a
// 3-node lalrd fleet replays the grammar corpus under concurrent load,
// one node is killed mid-replay, and the run passes only if no client
// ever saw an error, every warm request not owned by the node it
// landed on filled from its ring owner, and the dead peer's circuit
// breaker tripped on a survivor.
func TestClusterSmoke(t *testing.T) {
	// Listeners first: the peer list needs every node's port before
	// any cluster can be built.
	const fleetSize = 3
	lns := make([]net.Listener, fleetSize)
	urls := make([]string, fleetSize)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}

	nodes := make([]*smokeNode, fleetSize)
	for i, ln := range lns {
		cl, err := cluster.New(cluster.Config{
			Self:      urls[i],
			Peers:     urls,
			Transport: &cluster.HTTPTransport{},
			Verify:    verifyFrozen,
			// The breaker trips fast and stays open long enough to be
			// observed.
			BreakerFailures: 2,
			BreakerCooldown: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Three nodes replaying the corpus twice produce hundreds of
		// access-log lines; the servers log nothing here.
		srv := server.New(server.Config{
			CacheBytes: int64(cliguard.DefaultCacheSize),
			StoreDir:   t.TempDir(),
			Cluster:    cl,
		})
		node := &smokeNode{url: urls[i], hs: &http.Server{Handler: srv}, srv: srv, cl: cl}
		go node.hs.Serve(ln)
		srv.SetReady()
		nodes[i] = node
		t.Cleanup(func() {
			node.hs.Close() // stop traffic first, then the peer layer
			node.srv.Close()
		})
	}
	t.Logf("fleet %s", strings.Join(urls, " "))

	client := &http.Client{Timeout: 30 * time.Second}
	var (
		mu       sync.Mutex
		bodies   = map[string][]byte{} // grammar name -> first body seen
		errCount atomic.Int64
		peerHits atomic.Int64
	)
	// analyze posts one grammar to one node and checks the fleet
	// invariants: success, and the body byte-identical to every other
	// answer for the same grammar, whichever node computed it.
	analyze := func(node *smokeNode, name, src string) {
		req, _ := json.Marshal(server.AnalyzeRequest{Grammar: src, Filename: name + ".y"})
		resp, err := client.Post(node.url+"/v1/analyze", "application/json", bytes.NewReader(req))
		if err != nil {
			errCount.Add(1)
			t.Errorf("%s on %s: %v", name, node.url, err)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			errCount.Add(1)
			t.Errorf("%s on %s: status %d %v", name, node.url, resp.StatusCode, err)
			return
		}
		if resp.Header.Get("X-Repro-Cache") == "peer" {
			peerHits.Add(1)
		}
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := bodies[name]; !ok {
			bodies[name] = body
		} else if !bytes.Equal(prev, body) {
			errCount.Add(1)
			t.Errorf("%s on %s: body differs across nodes", name, node.url)
		}
	}
	// replay fans jobs over a small worker pool — concurrent load, the
	// condition the kill must not be visible under.
	type job struct {
		node      *smokeNode
		name, src string
	}
	replay := func(jobs []job) {
		ch := make(chan job)
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range ch {
					analyze(j.node, j.name, j.src)
				}
			}()
		}
		for _, j := range jobs {
			ch <- j
		}
		close(ch)
		wg.Wait()
	}

	corpus := grammars.All()

	// --- Round 1: cold replay, striped across the whole fleet. ---
	var jobs []job
	for j, g := range corpus {
		jobs = append(jobs, job{nodes[j%fleetSize], g.Name, g.Src})
	}
	replay(jobs)
	if n := errCount.Load(); n > 0 {
		t.Fatalf("cold replay: %d client-visible errors", n)
	}
	t.Logf("cold replay ok (%d grammars, 0 errors)", len(corpus))

	// Offers are asynchronous; wait until every grammar's frozen table
	// has landed on its ring owner, so the warm round is deterministic.
	deadline := time.Now().Add(15 * time.Second)
	for _, g := range corpus {
		fp := repro.Fingerprint(g.Src, repro.Options{})
		owner := nodes[0].cl.Owner(fp)
		for {
			resp, err := client.Get(owner + cluster.PeerTablePath + fp)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("offer for %s never landed on its owner %s", g.Name, owner)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	t.Log("offers converged on owners ok")

	// --- Round 2: warm replay, each grammar on a node that has never
	// computed it.  A node that owns the grammar holds the offered
	// table in its own store; every other node must fill from the ring
	// owner, not recompute. ---
	jobs = jobs[:0]
	wantFills := int64(0)
	for j, g := range corpus {
		node := nodes[(j+1)%fleetSize]
		jobs = append(jobs, job{node, g.Name, g.Src})
		if node.cl.Owner(repro.Fingerprint(g.Src, repro.Options{})) != node.url {
			wantFills++
		}
	}
	coldHits := peerHits.Load()
	replay(jobs)
	if n := errCount.Load(); n > 0 {
		t.Fatalf("warm replay: %d client-visible errors", n)
	}
	warmHits := peerHits.Load() - coldHits
	if warmHits == 0 {
		t.Fatal("warm replay: no request was served from a peer (want X-Repro-Cache: peer)")
	}
	if warmHits != wantFills {
		t.Fatalf("warm replay: %d peer fills, want %d (one per warm job not owned by its node)", warmHits, wantFills)
	}
	t.Logf("warm replay ok (%d peer fills)", warmHits)

	// --- Kill one node mid-replay. ---
	victim := nodes[fleetSize-1]
	if err := victim.hs.Close(); err != nil {
		t.Fatalf("killing %s: %v", victim.url, err)
	}
	t.Logf("killed %s", victim.url)
	survivors := nodes[:fleetSize-1]

	// Fresh grammar variants owned by the dead node, routed to the
	// survivors: every fetch must try the corpse, fail, and degrade to
	// local compute with the client none the wiser.
	jobs = jobs[:0]
	seed := corpus[0]
	found := 0
	for i := 0; found < 4 && i < 256; i++ {
		src := seed.Src + strings.Repeat("\n", i+1)
		fp := repro.Fingerprint(src, repro.Options{})
		if nodes[0].cl.Owner(fp) == victim.url {
			jobs = append(jobs, job{survivors[found%len(survivors)], fmt.Sprintf("%s-v%d", seed.Name, i), src})
			found++
		}
	}
	if found < 4 {
		t.Fatal("could not find grammar variants owned by the dead node")
	}
	// The full corpus rides along on the survivors, so the degraded
	// fleet also re-proves byte-identical answers under load.
	for j, g := range corpus {
		jobs = append(jobs, job{survivors[j%len(survivors)], g.Name, g.Src})
	}
	replay(jobs)
	if n := errCount.Load(); n > 0 {
		t.Fatalf("degraded replay: %d client-visible errors", n)
	}
	t.Logf("degraded replay ok (%d requests, 0 errors)", len(jobs))

	// The dead peer's breaker must have tripped on some survivor.
	tripped := false
	for _, node := range survivors {
		for _, ps := range node.cl.Stats().Peers {
			if ps.Peer == victim.url && ps.Trips >= 1 {
				tripped = true
			}
		}
	}
	if !tripped {
		t.Fatalf("no survivor's breaker tripped for the dead peer %s", victim.url)
	}

	// Graceful goodbye: drain flips /readyz before shutdown.
	s0 := survivors[0]
	s0.srv.BeginDrain()
	resp, err := client.Get(s0.url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after BeginDrain = %d, want 503", resp.StatusCode)
	}
}
