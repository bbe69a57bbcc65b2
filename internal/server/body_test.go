package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/cache"
	"repro/internal/export"
	"repro/internal/frozen"
	"repro/internal/grammars"
	"repro/internal/packed"
)

// libraryAnalysis analyzes src the way the server does, straight from
// the library.
func libraryAnalysis(t *testing.T, filename, src string, method repro.Method) *repro.Result {
	t.Helper()
	g, err := repro.LoadGrammar(filename, src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Analyze(g, repro.Options{Method: method})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAnalyzeBodyMatchesMarshal holds the analyze body, written
// straight from the analysis, to its encoding/json oracle — the
// envelope around export.Build's report — on every corpus grammar.
func TestAnalyzeBodyMatchesMarshal(t *testing.T) {
	for _, e := range grammars.All() {
		for _, m := range []repro.Method{repro.MethodDeRemerPennello, repro.MethodSLR} {
			res := libraryAnalysis(t, e.Name+".y", e.Src, m)
			fp := cache.Fingerprint(e.Src, m.String())
			want, err := marshalBody(AnalyzeResponse{
				Schema: Schema, Kind: "analyze", Fingerprint: fp, Method: m.String(),
				Report: export.Build(res.Automaton, res.Lookahead, res.Tables, res.DP, m.String()),
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := appendAnalyzeResponse(nil, fp, m.String(), res); !bytes.Equal(got, want) {
				t.Fatalf("%s/%s: appendAnalyzeResponse differs from marshalBody (%d vs %d bytes)", e.Name, m, len(got), len(want))
			}
		}
	}
}

// TestMissFreezesBodyOnlyRecord: a cold miss freezes a table-less FRZ1
// record — NumStates 0, empty table sections — that frozen.Decode
// accepts and whose body is the served body.
func TestMissFreezesBodyOnlyRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	ts := newTestServer(t, Config{CacheBytes: 1 << 20, StoreDir: dir})
	resp, body := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: danglingElse})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Repro-Cache") != "miss" {
		t.Fatalf("status %d, X-Repro-Cache %q", resp.StatusCode, resp.Header.Get("X-Repro-Cache"))
	}
	fp := cache.Fingerprint(danglingElse, repro.MethodDeRemerPennello.String())
	raw, err := os.ReadFile(filepath.Join(dir, fp+".frz"))
	if err != nil {
		t.Fatal(err)
	}
	ft, err := frozen.Decode(raw)
	if err != nil {
		t.Fatalf("server-written record does not decode: %v", err)
	}
	if ft.Fingerprint != fp || ft.NumStates != 0 || ft.Base.Len() != 0 || ft.Next.Len() != 0 || ft.GotoNext.Len() != 0 {
		t.Errorf("record = fp %q, %d states, base/next/goto %d/%d/%d; want fp %q and no tables",
			ft.Fingerprint, ft.NumStates, ft.Base.Len(), ft.Next.Len(), ft.GotoNext.Len(), fp)
	}
	if !bytes.Equal(ft.Body, body) {
		t.Error("frozen body differs from the served body")
	}
}

// TestTablesCarryingRecordServesFrozen: a store written before records
// went body-only — packed tables and body, like testdata/golden.frz —
// still answers X-Repro-Cache: frozen with the identical body.
func TestTablesCarryingRecordServesFrozen(t *testing.T) {
	_, want := post(t, newTestServer(t, Config{}), "/v1/analyze", AnalyzeRequest{Grammar: danglingElse})

	g, err := repro.LoadGrammar("grammar.y", danglingElse)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Analyze(g, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := packed.Pack(res.Tables)
	next := make([]int32, len(p.Next))
	for i, act := range p.Next {
		next[i] = int32(act)
	}
	dir := filepath.Join(t.TempDir(), "store")
	st, err := frozen.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	td := &frozen.TableData{
		NumStates: res.Tables.NumStates, Fingerprint: cache.Fingerprint(danglingElse, repro.MethodDeRemerPennello.String()),
		DefaultReduce: p.DefaultReduce, Base: p.Base, Next: next, Check: p.Check,
		GotoBase: p.GotoBase, GotoNext: p.GotoNext, GotoCheck: p.GotoCheck,
		Body: want,
	}
	if err := st.PutBytes(td.Fingerprint, frozen.Freeze(td)); err != nil {
		t.Fatal(err)
	}

	resp, got := post(t, newTestServer(t, Config{CacheBytes: 1 << 20, StoreDir: dir}), "/v1/analyze", AnalyzeRequest{Grammar: danglingElse})
	if out := resp.Header.Get("X-Repro-Cache"); out != "frozen" {
		t.Fatalf("X-Repro-Cache = %q, want frozen", out)
	}
	if !bytes.Equal(got, want) {
		t.Error("body served from a tables-carrying record differs from the computed body")
	}
}

// TestMissTraceNamesServerSpans: a miss's trace names the server's own
// layers as root spans around the pipeline phases — the grammar read
// first, then the body encode and, with a store, the freeze plus store
// put last — and has no report-build span.
func TestMissTraceNamesServerSpans(t *testing.T) {
	for _, c := range []struct {
		storeDir string
		tail     []string
	}{
		{"", []string{"body-encode"}},
		{filepath.Join(t.TempDir(), "store"), []string{"body-encode", "frozen-save"}},
	} {
		ts := newTestServer(t, Config{CacheBytes: 1 << 20, StoreDir: c.storeDir})
		resp, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: danglingElse})
		tr := fetchTrace(t, ts, resp.Header.Get("X-Repro-Request-Id"))
		if len(tr.Entries) != 1 {
			t.Fatalf("entries = %d, want 1", len(tr.Entries))
		}
		phases := tr.Entries[0].Phases
		if len(phases) <= 1+len(c.tail) {
			t.Fatalf("store %q: %d root spans, want grammar-load, the pipeline's and %v", c.storeDir, len(phases), c.tail)
		}
		if got := phases[0].Name; got != "grammar-load" {
			t.Errorf("store %q: first root span = %q, want grammar-load", c.storeDir, got)
		}
		for i, name := range c.tail {
			if got := phases[len(phases)-len(c.tail)+i].Name; got != name {
				t.Errorf("store %q: server span %d = %q, want %q", c.storeDir, i, got, name)
			}
		}
		for _, sp := range phases {
			if sp.Name == "export-build" {
				t.Errorf("store %q: miss trace still has an export-build span", c.storeDir)
			}
		}
	}
}

// TestFrozenAndPeerBodiesSpliceTheFilename: the fingerprint addresses
// the grammar text, but the body names the grammar after the request's
// filename.  A store or a ring owner holding the text under another
// filename answers frozen or peer all the same, with the request's
// name spliced in: the body is the library's for its own name, escapes
// in either name included, and the stored record is left as it was.
func TestFrozenAndPeerBodiesSpliceTheFilename(t *testing.T) {
	library := newTestServer(t, Config{})
	want := func(src, filename string) []byte {
		_, body := post(t, library, "/v1/analyze", AnalyzeRequest{Grammar: src, Filename: filename})
		return body
	}
	dir := filepath.Join(t.TempDir(), "store")
	ts := newTestServer(t, Config{CacheBytes: 1 << 20, StoreDir: dir})
	post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: danglingElse, Filename: "a.y"})
	fp := repro.Fingerprint(danglingElse, repro.Options{})
	record, err := os.ReadFile(filepath.Join(dir, fp+".frz"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"b.y", "dir/q\"\\\u00fc\x01.y", "a-much-longer-grammar-name.y"} {
		resp, got := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: danglingElse, Filename: name})
		if out := resp.Header.Get("X-Repro-Cache"); out != "frozen" || !bytes.Equal(got, want(danglingElse, name)) {
			t.Errorf("store holding a.y: %q answered %q, body identical to the library's: %t", name, out, bytes.Equal(got, want(danglingElse, name)))
		}
	}
	if after, err := os.ReadFile(filepath.Join(dir, fp+".frz")); err != nil || !bytes.Equal(after, record) {
		t.Errorf("splicing rewrote the stored record (err %v)", err)
	}

	nodes := newFleet(t, 2, nil, nil)
	src, _ := grammarOwnedBy(t, nodes[0].cl, nodes[1].url)
	post(t, nodes[1].ts, "/v1/analyze", AnalyzeRequest{Grammar: src, Filename: "a.y"})
	resp, got := post(t, nodes[0].ts, "/v1/analyze", AnalyzeRequest{Grammar: src, Filename: "b.y"})
	if out := resp.Header.Get("X-Repro-Cache"); out != "peer" || !bytes.Equal(got, want(src, "b.y")) {
		t.Errorf("owner holding a.y: b.y answered %q, body identical to the library's: %t", out, bytes.Equal(got, want(src, "b.y")))
	}
}

// TestAnalyzeBodyAsRejectsForeignBodies: a record whose body does not
// open like an analyze body for its fingerprint and method, or whose
// grammar name is cut short, answers nothing, so the request computes.
func TestAnalyzeBodyAsRejectsForeignBodies(t *testing.T) {
	head := export.AppendAnalysisHead(appendAnalyzeEnvelope(nil, "fp", "dp"), 1, `a"b`)
	body := append(append([]byte(nil), head...), ",\n rest"...)
	if got, ok := analyzeBodyAs(body, "fp", "dp", `a"b.y`); !ok || &got[0] != &body[0] {
		t.Errorf("same name: ok %t, want the stored body itself", ok)
	}
	if got, ok := analyzeBodyAs(body, "fp", "dp", "c.y"); !ok || !bytes.HasSuffix(got, []byte("\"c\",\n rest")) {
		t.Errorf("other name: ok %t, body %q", ok, got)
	}
	for _, b := range [][]byte{
		head[:len(head)-1],             // the name's string never closes
		head[:len(head)-len(`"a\"b"`)], // no name at all
		[]byte("{}"),
		nil,
	} {
		if _, ok := analyzeBodyAs(b, "fp", "dp", "c.y"); ok {
			t.Errorf("answered with %q", b)
		}
	}
	if _, ok := analyzeBodyAs(body, "other", "dp", "c.y"); ok {
		t.Error("answered for another fingerprint")
	}
}
