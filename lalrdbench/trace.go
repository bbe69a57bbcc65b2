package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/export"
	"repro/internal/frozen"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/packed"
	"repro/internal/server"
)

// The traced run attributes each op's client-observed time to layers.
// Three sources feed it, all measured around the program's public
// calls, none inside it:
//
//   - the server's own trace of the request (GET /debugz/traces/{id},
//     looked up by X-Repro-Request-Id): the pipeline phase spans;
//   - wrappers the benchmark installs at the server's seams: the
//     http.Handler (server time, so http.transport is the rest of the
//     round trip) and, on the peer requester, the cluster Transport
//     (cluster.fetch) and Verify hook (frozen.decode);
//   - a replay, right after the op, of the layers the server runs
//     without a span, called on the same inputs: request decode,
//     cache.Fingerprint, repro.LoadGrammar, export.Build, the response
//     marshal, packed.Pack, frozen.Freeze, Store.PutBytes, lint.WriteJSON.
//
// server.self is what remains of the request: handler time no named
// layer covers.

// layerNames are the timed layers, each reported as <name>_ms with a
// <name>_alloc_kb sibling, both means per op: means add up (the layers
// plus server.self equal the mean request), and they do not hide a
// layer that is heavy on a few grammars only, as a median would.
var layerNames = []string{
	"http.transport", "server.decode", "cache.fingerprint",
	"grammar.parse", "grammar.analysis", "lr0.build", "core.relations", "digraph.solve", "lalrtable.build",
	"export.build", "server.marshal", "packed.pack", "frozen.freeze", "frozen.put",
	"cluster.fetch", "frozen.decode",
	"lint.facts", "lint.passes", "ambig.walk", "lint.write",
	"server.self",
}

// allocName is a layer's allocation metric: ambig.walk's is named
// ambig.alloc_kb.
func allocName(layer string) string {
	if layer == "ambig.walk" {
		return "ambig.alloc_kb"
	}
	return layer + "_alloc_kb"
}

// spanLayers maps the pipeline's obs span names onto layers.  Spans
// nested in a span of the same layer (lr0-states inside
// lr0-construction) are not counted twice.
var spanLayers = map[string]string{
	"grammar-analysis":  "grammar.analysis",
	"lr0-construction":  "lr0.build",
	"lr0-states":        "lr0.build",
	"lr0-nt-numbering":  "lr0.build",
	"dr-reads":          "core.relations",
	"includes-lookback": "core.relations",
	"la-union":          "core.relations",
	"solve-reads":       "digraph.solve",
	"solve-includes":    "digraph.solve",
	"table-build":       "lalrtable.build",
	"lint-facts":        "lint.facts",
}

func spanLayer(name string) string {
	if l, ok := spanLayers[name]; ok {
		return l
	}
	if name == "lint-pass-ambiguity" {
		return "ambig.walk"
	}
	if strings.HasPrefix(name, "lint-pass-") {
		return "lint.passes"
	}
	return ""
}

// opTrace is one op's attribution.
type opTrace struct {
	ms, kb map[string]float64
	// nested layers ran inside another named layer (LR(0) inside
	// lint-facts), so they are reported but not summed.
	nested map[string]bool
	walks  int
}

func newOpTrace() *opTrace {
	return &opTrace{ms: map[string]float64{}, kb: map[string]float64{}, nested: map[string]bool{}}
}

func (o *opTrace) add(layer string, d time.Duration, alloc uint64) {
	o.ms[layer] += float64(d) / float64(time.Millisecond)
	o.kb[layer] += float64(alloc) / 1024
}

// addSpans folds a request's span trees into layers.
func (o *opTrace) addSpans(spans []obs.SpanExport, outer map[string]bool) {
	for _, sp := range spans {
		if sp.Name == "ambig.walk" {
			o.walks++
		}
		l := spanLayer(sp.Name)
		inner := outer
		if l != "" && !outer[l] {
			o.add(l, time.Duration(sp.WallNs), uint64(max(sp.AllocBytes, 0)))
			if len(outer) > 0 {
				o.nested[l] = true
			}
			inner = map[string]bool{l: true}
			for k := range outer {
				inner[k] = true
			}
		}
		o.addSpans(sp.Children, inner)
	}
}

// attributed is the op's time and allocation covered by named layers
// that do not nest in another.
func (o *opTrace) attributed() (ms, kb float64) {
	for l, v := range o.ms {
		if !o.nested[l] {
			ms += v
			kb += o.kb[l]
		}
	}
	return ms, kb
}

// probe collects the traced run's measurements.
type probe struct {
	active atomic.Bool // an op is being traced: the taps record

	mu      sync.Mutex
	fetches int    // Transport.Fetch calls while active
	fetch   timing // their time and allocation
	decode  timing // Verify (frozen.Decode) time and allocation while active
	raw     []byte // the last fetched bytes
	cl      cluster.Stats

	store     *frozen.Store // replay target for Store.PutBytes
	ms, kb    map[string][]float64
	counts    map[string][]float64
	reqMS     float64 // Σ client request time
	attrMS    float64 // Σ attributed time
	hits      int
	ops       int
	overLimit int // ops whose named layers sum past the request time
}

type timing struct {
	d     time.Duration
	alloc uint64
}

func newProbe() *probe {
	return &probe{ms: map[string][]float64{}, kb: map[string][]float64{}, counts: map[string][]float64{}}
}

// tapTransport times the peer layer's exchanges.
type tapTransport struct {
	next cluster.Transport
	p    *probe
}

func (t *tapTransport) Fetch(ctx context.Context, peer, fp string) ([]byte, error) {
	if !t.p.active.Load() {
		return t.next.Fetch(ctx, peer, fp)
	}
	a0, t0 := totalAlloc(), time.Now()
	raw, err := t.next.Fetch(ctx, peer, fp)
	d, alloc := time.Since(t0), totalAlloc()-a0
	t.p.mu.Lock()
	t.p.fetches++
	t.p.fetch.d += d
	t.p.fetch.alloc += alloc
	t.p.raw = raw
	t.p.mu.Unlock()
	return raw, err
}

func (t *tapTransport) Offer(ctx context.Context, peer, fp string, raw []byte) error {
	return t.next.Offer(ctx, peer, fp, raw)
}

// verify is verifyFrozen, timed while an op is traced.
func (p *probe) verify(fp string, raw []byte) error {
	if !p.active.Load() {
		return verifyFrozen(fp, raw)
	}
	a0, t0 := totalAlloc(), time.Now()
	err := verifyFrozen(fp, raw)
	d, alloc := time.Since(t0), totalAlloc()-a0
	p.mu.Lock()
	p.decode.d += d
	p.decode.alloc += alloc
	p.mu.Unlock()
	return err
}

func (p *probe) addCluster(st cluster.Stats) {
	p.cl.Fills += st.Fills
	p.cl.NotFound += st.NotFound
	p.cl.Degrades += st.Degrades
	p.cl.Retries += st.Retries
	p.cl.Hedges += st.Hedges
}

// replayRuns is how many times the traced run replays each layer
// call.  It keeps the fastest, so interference during one replay (a GC
// assist, a page-cache stall) does not charge a layer more than the
// request spent in it.
const replayRuns = 3

// timeCall replays f and records its time and allocation as layer.  f
// must be repeatable.
func (o *opTrace) timeCall(layer string, f func() error) error {
	best := time.Duration(math.MaxInt64)
	var alloc uint64
	for i := range replayRuns {
		a0 := totalAlloc()
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if i == 0 {
			alloc = totalAlloc() - a0
		}
		best = min(best, d)
	}
	o.add(layer, best, alloc)
	return nil
}

// tracedOp sends the op in r.buf, checks it like any other, and
// attributes its time.  It returns the client-observed request time.
func (r *rig) tracedOp(nd *node, ref *ref, path, outcome string) (time.Duration, error) {
	p := r.probe
	p.mu.Lock()
	p.fetch, p.decode, p.raw = timing{}, timing{}, nil
	p.mu.Unlock()
	p.active.Store(true)
	a0 := totalAlloc()
	t0 := time.Now()
	status, out, id, err := r.post(nd, path, r.buf)
	req := time.Since(t0)
	reqAlloc := totalAlloc() - a0
	p.active.Store(false)
	if err != nil {
		return req, fmt.Errorf("%s: %w", ref.Name, err)
	}
	var h handled
	select {
	case h = <-nd.tap:
	case <-time.After(10 * time.Second):
		return req, fmt.Errorf("%s: no handler sample", ref.Name)
	}
	if err := r.check(ref, path, outcome, status, out); err != nil {
		return req, err
	}
	respLen := r.resp.Len()

	o := newOpTrace()
	o.add("http.transport", req-h.d, reqAlloc-min(h.alloc, reqAlloc))
	var tr server.TraceResponse
	if err := r.get(nd, "/debugz/traces/"+id, &tr); err != nil {
		return req, fmt.Errorf("%s: trace: %w", ref.Name, err)
	}
	for _, e := range tr.Trace.Entries {
		o.addSpans(e.Phases, nil)
	}
	p.mu.Lock()
	fetch, decode, raw := p.fetch, p.decode, p.raw
	p.mu.Unlock()
	if fetch.d > 0 {
		o.add("cluster.fetch", fetch.d, fetch.alloc)
		o.add("frozen.decode", decode.d, decode.alloc)
	}
	frzLen, err := r.replay(o, ref, path, out, raw, respLen)
	if err != nil {
		return req, fmt.Errorf("%s: replay: %w", ref.Name, err)
	}
	reqMS := float64(req) / float64(time.Millisecond)
	attrMS, attrKB := o.attributed()
	o.ms["server.self"] = reqMS - attrMS
	o.kb["server.self"] = float64(reqAlloc)/1024 - attrKB
	p.record(o, reqMS, attrMS)
	if out == "hit" {
		p.hits++
	}
	var counts map[string]int64
	if out == "miss" {
		counts = ref.counts[path]
	}
	p.count("lr0.states", float64(counts[obs.CLR0States]))
	p.count("digraph.relation_edges", float64(counts[obs.CRelationEdges]))
	p.count("digraph.bitset_unions", float64(counts[obs.CBitsetUnions]))
	p.count("digraph.sccs", float64(counts[obs.CSCCs]))
	p.count("ambig.walks", float64(o.walks))
	p.count("frozen.bytes_kb", float64(frzLen)/1024)
	bodyKB := 0.0
	if out == "miss" && path == "/v1/analyze" {
		bodyKB = float64(respLen) / 1024
	}
	p.count("export.body_kb", bodyKB)
	return req, nil
}

// replay times, on the op's own inputs, the layers the server runs
// without a span.  It returns the size of the op's frozen record.
func (r *rig) replay(o *opTrace, ref *ref, path, outcome string, fetched []byte, respLen int) (int, error) {
	p := r.probe
	body := r.buf
	var src, filename string
	if err := o.timeCall("server.decode", func() error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if path == "/v1/lint" {
			var req server.LintRequest
			err := dec.Decode(&req)
			src, filename = req.Grammar, req.Filename
			return err
		}
		var req server.AnalyzeRequest
		err := dec.Decode(&req)
		src, filename = req.Grammar, req.Filename
		return err
	}); err != nil {
		return 0, err
	}
	method := methodName
	if path == "/v1/lint" {
		method = "lint"
	}
	var fp string
	o.timeCall("cache.fingerprint", func() error {
		fp = cache.Fingerprint(src, method)
		return nil
	})
	switch {
	case outcome == "peer":
		// The requester stores nothing (see workload.peer); the
		// fetched record's size is still the op's frozen.bytes_kb.
		return len(fetched), nil
	case outcome != "miss":
		return 0, nil
	}
	if err := o.timeCall("grammar.parse", func() error {
		_, err := repro.LoadGrammar(filename, src)
		return err
	}); err != nil {
		return 0, err
	}
	var out []byte
	if path == "/v1/lint" {
		var doc bytes.Buffer
		if err := o.timeCall("lint.write", func() error {
			doc.Reset()
			return lint.WriteJSON(&doc, []*lint.Report{ref.rep}, []*repro.Grammar{ref.g})
		}); err != nil {
			return 0, err
		}
		return 0, o.timeCall("server.marshal", func() (err error) {
			out, err = marshalBody(server.LintResponse{
				Schema: server.Schema, Kind: "lint",
				Fingerprint: fp, Lint: bytes.TrimSpace(doc.Bytes()), Ambig: ambigSummary(ref.rep),
			})
			return err
		})
	}
	res := ref.res
	var rep *export.Report
	o.timeCall("export.build", func() error {
		rep = export.Build(res.Automaton, res.Lookahead, res.Tables, res.DP, methodName)
		return nil
	})
	if err := o.timeCall("server.marshal", func() (err error) {
		out, err = analyzeBody(fp, rep)
		return err
	}); err != nil {
		return 0, err
	}
	if len(out) != respLen {
		return 0, fmt.Errorf("replayed body is %d bytes, response %d", len(out), respLen)
	}
	var pk *packed.Tables
	o.timeCall("packed.pack", func() error {
		pk = packed.Pack(res.Tables)
		return nil
	})
	var raw []byte
	o.timeCall("frozen.freeze", func() error {
		next := make([]int32, len(pk.Next))
		for i, act := range pk.Next {
			next[i] = int32(act)
		}
		raw = frozen.Freeze(&frozen.TableData{
			NumStates: res.Tables.NumStates, Fingerprint: fp,
			DefaultReduce: pk.DefaultReduce, Base: pk.Base, Next: next, Check: pk.Check,
			GotoBase: pk.GotoBase, GotoNext: pk.GotoNext, GotoCheck: pk.GotoCheck,
			Body: out,
		})
		return nil
	})
	return len(raw), o.timeCall("frozen.put", func() error { return p.store.PutBytes(fp, raw) })
}

// record appends one op's layer values (0 where a layer did not run).
func (p *probe) record(o *opTrace, reqMS, attrMS float64) {
	for _, l := range layerNames {
		p.ms[l] = append(p.ms[l], o.ms[l])
		p.kb[l] = append(p.kb[l], o.kb[l])
	}
	p.reqMS += reqMS
	p.attrMS += attrMS
	p.ops++
	if attrMS > reqMS {
		p.overLimit++
	}
}

func (p *probe) count(name string, v float64) { p.counts[name] = append(p.counts[name], v) }

// openStore gives the replay its own frozen store.
func (p *probe) openStore(dir string) error {
	st, err := frozen.OpenStore(filepath.Join(dir, "replay-store"))
	p.store = st
	return err
}

// countMetrics are per-op means, with their units.
var countMetrics = map[string]string{
	"lr0.states":             "count",
	"digraph.relation_edges": "count",
	"digraph.bitset_unions":  "count",
	"digraph.sccs":           "count",
	"ambig.walks":            "count",
	"export.body_kb":         "KiB",
	"frozen.bytes_kb":        "KiB",
}

// metrics renders the traced run's per-layer metrics.  base is the
// untraced phase run just before the traced one.
func (p *probe) metrics(base, traced *tally) map[string]metric {
	m := map[string]metric{}
	for _, l := range layerNames {
		m[l+"_ms"] = metric{mean(p.ms[l]), "ms"}
		m[allocName(l)] = metric{mean(p.kb[l]), "KiB"}
	}
	for name, unit := range countMetrics {
		m[name] = metric{mean(p.counts[name]), unit}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	fetches := float64(p.cl.Fills + p.cl.NotFound + p.cl.Degrades)
	bt, tt := base.total(), traced.total()
	untraced := ratio(float64(base.ops), bt.wall.Seconds())
	tracedRate := ratio(float64(traced.ops), tt.wall.Seconds())
	m["cache.hit_ratio"] = metric{ratio(float64(p.hits), float64(p.ops)), "ratio"}
	m["cluster.attempts_per_fetch"] = metric{ratio(float64(p.fetches), fetches), "ratio"}
	m["cluster.fill_ratio"] = metric{ratio(float64(p.cl.Fills), fetches), "ratio"}
	m["cluster.retries"] = metric{float64(p.cl.Retries), "count"}
	m["cluster.hedges"] = metric{float64(p.cl.Hedges), "count"}
	m["gc.cpu_ms_per_op"] = metric{ratio(bt.gcCPU*1000, float64(base.ops)), "ms"}
	m["server.attributed_pct"] = metric{100 * ratio(p.attrMS, p.reqMS), "%"}
	m["trace.untraced_ops_per_s"] = metric{untraced, "1/s"}
	m["trace.traced_ops_per_s"] = metric{tracedRate, "1/s"}
	m["trace.overhead_pct"] = metric{100 * (ratio(untraced, tracedRate) - 1), "%"}
	return m
}
