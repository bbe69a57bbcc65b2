package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/export"
	"repro/internal/obs"
	"repro/internal/packed"
)

func TestPercentileAndSampleCountRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n, pct     int
		want       float64
		beyond     int
		reportable bool
	}{
		{n: 1000, pct: 99, want: 990, beyond: 10, reportable: true},
		{n: 1005, pct: 99, want: 995, beyond: 10, reportable: true},
		{n: 999, pct: 99, want: 990, beyond: 9, reportable: false},
		{n: 100, pct: 99, want: 99, beyond: 1, reportable: false},
		{n: 10, pct: 50, want: 5, beyond: 5, reportable: false},
		{n: 11, pct: 50, want: 6, beyond: 5, reportable: false},
		{n: 1, pct: 50, want: 1, beyond: 0, reportable: false},
		{n: 20, pct: 50, want: 10, beyond: 10, reportable: true},
	} {
		v, beyond := percentile(seq(tc.n), tc.pct)
		if v != tc.want || beyond != tc.beyond || reportable(beyond) != tc.reportable {
			t.Errorf("p%d of 1..%d = %v with %d beyond (reportable %v), want %v with %d (reportable %v)",
				tc.pct, tc.n, v, beyond, reportable(beyond), tc.want, tc.beyond, tc.reportable)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The reported percentiles are medians over blocks of at least
// latBlockOps ops, and the sample-count rule holds in every block: a
// burst that slows one block of three does not move p99.
func TestBlockPercentile(t *testing.T) {
	lat := make([]float64, 3*latBlockOps+2)
	for i := range lat {
		lat[i] = float64(i%latBlockOps + 1)
	}
	for i := latBlockOps; i < 2*latBlockOps; i++ {
		lat[i] *= 100 // the burst
	}
	v, blocks, beyond := blockPercentile(lat, 99)
	if blocks != 3 || beyond != 10 || !reportable(beyond) {
		t.Errorf("p99 of %d ops: %d blocks, %d beyond, want 3 blocks, 10 beyond", len(lat), blocks, beyond)
	}
	if v < 990 || v > 991 {
		t.Errorf("p99 = %v, want the unburst blocks' 990 or 991", v)
	}
	if _, blocks, beyond := blockPercentile(lat[:latBlockOps-1], 99); blocks != 1 || reportable(beyond) {
		t.Errorf("p99 of %d ops: %d blocks, %d beyond (reportable), want 1 block, not reportable", latBlockOps-1, blocks, beyond)
	}
	if _, blocks, _ := blockPercentile(make([]float64, 100*latBlockOps), 50); blocks != maxLatBlocks {
		t.Errorf("%d ops cut into %d blocks, want %d", 100*latBlockOps, blocks, maxLatBlocks)
	}
}

// A run stops early only past the time cap, and never below
// minTimedOps.
func TestOverTime(t *testing.T) {
	for _, tc := range []struct {
		elapsed time.Duration
		ops     int
		want    bool
	}{
		{14 * time.Second, minTimedOps, false},
		{16 * time.Second, minTimedOps - 1, false},
		{16 * time.Second, minTimedOps, true},
	} {
		if got := overTime(10, tc.elapsed, tc.ops); got != tc.want {
			t.Errorf("overTime(10 s, %v, %d ops) = %v, want %v", tc.elapsed, tc.ops, got, tc.want)
		}
	}
}

// A nonce'd source must be a different cache key for the same work:
// a fresh fingerprint, identical look-ahead sets and tables, and a
// response body equal to the base one with the fingerprint masked.
func TestNonceFreshFingerprintSameAnalysis(t *testing.T) {
	for _, cg := range loadCorpus() {
		nc := nonce(7, streamTimed, 3, 11)
		src := cg.source(nc)
		if cache.Fingerprint(src, methodName) == cache.Fingerprint(cg.src, methodName) {
			t.Fatalf("%s: nonce left the fingerprint unchanged", cg.Name)
		}
		base := analyze(t, cg.file, cg.src)
		got := analyze(t, cg.file, src)
		if !reflect.DeepEqual(got.Lookahead, base.Lookahead) {
			t.Errorf("%s: look-ahead sets differ", cg.Name)
		}
		if !reflect.DeepEqual(packed.Pack(got.Tables), packed.Pack(base.Tables)) {
			t.Errorf("%s: packed tables differ", cg.Name)
		}
		want := body(t, cache.Fingerprint(cg.src, methodName), base)
		have := body(t, cache.Fingerprint(src, methodName), got)
		off, err := fingerprintOffset(want)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(have, want) || !sameBody(have, want, off) {
			t.Errorf("%s: body must differ only in the fingerprint", cg.Name)
		}
		// The request body carries exactly the nonce'd source.
		var req struct{ Grammar, Filename string }
		if err := json.Unmarshal(cg.appendBody(nil, "/v1/analyze", nc), &req); err != nil || req.Grammar != src || req.Filename != cg.file {
			t.Errorf("%s: request body does not carry the nonce'd source (%v)", cg.Name, err)
		}
	}
}

func analyze(t *testing.T, file, src string) *repro.Result {
	t.Helper()
	g, err := repro.LoadGrammar(file, src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Analyze(g, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func body(t *testing.T, fp string, res *repro.Result) []byte {
	t.Helper()
	b, err := analyzeBody(fp, export.Build(res.Automaton, res.Lookahead, res.Tables, res.DP, methodName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func testRig(t *testing.T, name string, traced bool) *rig {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRig(w, 1, filepath.Join(t.TempDir(), "rig"), traced)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.close)
	if err := r.prepare(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCorruptedBodyCountsAsFailed(t *testing.T) {
	r := testRig(t, "analyze-hot", false)
	var clean tally
	if err := r.pass(streamTimed, 0, r.w.path, r.w.outcome, &clean); err != nil {
		t.Fatal(err)
	}
	if clean.ops != len(r.refs) || clean.failed != 0 {
		t.Fatalf("clean pass: %d ops, %d failed (%v)", clean.ops, clean.failed, clean.firstErr)
	}
	target := r.ops + 3
	r.mangle = func(i int, b []byte) {
		if i == target {
			b[len(b)/2] ^= 1
		}
	}
	var bad tally
	if err := r.pass(streamTimed, 1, r.w.path, r.w.outcome, &bad); err != nil {
		t.Fatal(err)
	}
	if bad.ops != len(r.refs) || bad.failed != 1 || bad.firstErr == nil {
		t.Fatalf("corrupted pass: %d ops, %d failed (%v), want 1 failed", bad.ops, bad.failed, bad.firstErr)
	}
}

func TestLayersNeverSumPastRequest(t *testing.T) {
	r := testRig(t, "analyze-cold", true)
	var tr tally
	for p := range 2 {
		if err := r.pass(streamTraced, uint64(p), r.w.path, r.w.outcome, &tr); err != nil {
			t.Fatal(err)
		}
	}
	if tr.failed != 0 {
		t.Fatalf("%d of %d traced ops failed: %v", tr.failed, tr.ops, tr.firstErr)
	}
	p := r.probe
	if p.ops != tr.ops || p.reqMS <= 0 {
		t.Fatalf("probe saw %d ops (%v ms), want %d", p.ops, p.reqMS, tr.ops)
	}
	if p.attrMS > p.reqMS {
		t.Errorf("named layers sum to %.3f ms, past the %.3f ms of request time", p.attrMS, p.reqMS)
	}
	for _, l := range []string{"http.transport", "grammar.parse", "lr0.build", "digraph.solve", "export.build", "server.marshal", "frozen.put"} {
		if median(p.ms[l]) <= 0 {
			t.Errorf("layer %s was not timed", l)
		}
	}
}

// Spans nested in a named layer are reported but not summed: lint-facts
// covers the LR(0) and DP spans it contains.
func TestNestedSpansCountedOnce(t *testing.T) {
	ms := int64(1e6)
	o := newOpTrace()
	o.addSpans([]obs.SpanExport{{Name: "lint", WallNs: 10 * ms, Children: []obs.SpanExport{
		{Name: "lint-facts", WallNs: 4 * ms, Children: []obs.SpanExport{
			{Name: "lr0-states", WallNs: 1 * ms},
			{Name: "solve-reads", WallNs: 1 * ms},
		}},
		{Name: "lint-pass-useless", WallNs: 1 * ms},
		{Name: "lint-pass-ambiguity", WallNs: 3 * ms, Children: []obs.SpanExport{
			{Name: "ambig.walk", WallNs: 2 * ms}, {Name: "ambig.walk", WallNs: 2 * ms},
		}},
	}}}, nil)
	if got, _ := o.attributed(); got != 8 {
		t.Errorf("attributed %v ms, want 8 (facts 4 + passes 1 + ambiguity 3)", got)
	}
	if o.ms["lr0.build"] != 1 || !o.nested["lr0.build"] || o.walks != 2 {
		t.Errorf("lr0.build %v nested %v walks %d, want 1 ms, nested, 2 walks", o.ms["lr0.build"], o.nested["lr0.build"], o.walks)
	}
	a := newOpTrace()
	a.addSpans([]obs.SpanExport{{Name: "analyze", WallNs: 5 * ms, Children: []obs.SpanExport{
		{Name: "lr0-construction", WallNs: 2 * ms, Children: []obs.SpanExport{
			{Name: "lr0-states", WallNs: 1 * ms}, {Name: "lr0-nt-numbering", WallNs: 1 * ms},
		}},
	}}}, nil)
	if got, _ := a.attributed(); got != 2 || a.nested["lr0.build"] {
		t.Errorf("analyze: attributed %v ms (lr0.build nested %v), want 2 and not nested", got, a.nested["lr0.build"])
	}
}
