package obs

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	sp := r.Start("phase")
	sp.End()
	r.Add(CBitsetUnions, 5)
	if got := r.Counter(CBitsetUnions); got != 0 {
		t.Errorf("nil recorder counter = %d, want 0", got)
	}
	if r.Snapshot() != nil {
		t.Error("nil recorder snapshot should be nil")
	}
	if r.Tree() != "" {
		t.Error("nil recorder tree should be empty")
	}
	e := r.ExportData()
	if e.Schema != SchemaVersion {
		t.Errorf("nil export schema = %q", e.Schema)
	}
}

func TestSpanNesting(t *testing.T) {
	r := New()
	outer := r.Start("outer")
	inner := r.Start("inner")
	inner.End()
	sib := r.Start("sibling")
	sib.End()
	outer.End()
	root2 := r.Start("second-root")
	root2.End()

	e := r.ExportData()
	if len(e.Phases) != 2 {
		t.Fatalf("got %d roots, want 2", len(e.Phases))
	}
	if e.Phases[0].Name != "outer" || e.Phases[1].Name != "second-root" {
		t.Errorf("root names = %q, %q", e.Phases[0].Name, e.Phases[1].Name)
	}
	kids := e.Phases[0].Children
	if len(kids) != 2 || kids[0].Name != "inner" || kids[1].Name != "sibling" {
		t.Errorf("children = %+v", kids)
	}
}

func TestEndClosesOpenChildren(t *testing.T) {
	r := New()
	outer := r.Start("outer")
	r.Start("leaked") // never explicitly ended
	outer.End()
	if r.cur != nil {
		t.Error("current span should be nil after outer.End")
	}
	another := r.Start("another")
	another.End()
	e := r.ExportData()
	if len(e.Phases) != 2 {
		t.Fatalf("got %d roots, want 2 (outer, another): %+v", len(e.Phases), e.Phases)
	}
}

func TestDoubleEndIsNoop(t *testing.T) {
	r := New()
	s := r.Start("s")
	s.End()
	wall := s.wall
	time.Sleep(time.Millisecond)
	s.End()
	if s.wall != wall {
		t.Error("second End changed the recorded duration")
	}
}

func TestCountersAndSnapshot(t *testing.T) {
	r := New()
	r.Add(CReadsEdges, 3)
	r.Add(CBitsetUnions, 10)
	r.Add(CReadsEdges, 4)
	r.Add(CSCCs, 0) // zero deltas are dropped
	if got := r.Counter(CReadsEdges); got != 7 {
		t.Errorf("reads_edges = %d, want 7", got)
	}
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2: %v", len(snap), snap)
	}
	// Sorted by name: bitset_unions < reads_edges.
	if snap[0].Name != CBitsetUnions || snap[1].Name != CReadsEdges {
		t.Errorf("snapshot order: %v", snap)
	}
	var seen []string
	r.Do(func(kv KV) { seen = append(seen, kv.Name) })
	if len(seen) != 2 || seen[0] != CBitsetUnions {
		t.Errorf("Do order: %v", seen)
	}
}

func TestMergeSumsCountersAndAdoptsSpans(t *testing.T) {
	r := New()
	r.Add(CBitsetUnions, 10)
	batch := r.Start("batch")

	w1 := New()
	s := w1.Start("analyze-a")
	w1.Start("lr0") // left open: Merge must close it
	_ = s
	w1.Add(CBitsetUnions, 5)
	w1.Add(CReadsEdges, 3)

	w2 := New()
	w2.Start("analyze-b").End()
	w2.Add(CReadsEdges, 4)

	r.Merge(w1)
	r.Merge(w2)
	batch.End()

	if got := r.Counter(CBitsetUnions); got != 15 {
		t.Errorf("bitset_unions = %d, want 15", got)
	}
	if got := r.Counter(CReadsEdges); got != 7 {
		t.Errorf("reads_edges = %d, want 7", got)
	}
	e := r.ExportData()
	if len(e.Phases) != 1 || e.Phases[0].Name != "batch" {
		t.Fatalf("roots = %+v", e.Phases)
	}
	kids := e.Phases[0].Children
	if len(kids) != 2 || kids[0].Name != "analyze-a" || kids[1].Name != "analyze-b" {
		t.Fatalf("batch children = %+v", kids)
	}
	if len(kids[0].Children) != 1 || kids[0].Children[0].Name != "lr0" {
		t.Errorf("adopted subtree lost its children: %+v", kids[0])
	}
	// w1's spans were adopted, not copied: it must no longer own them.
	if len(w1.roots) != 0 {
		t.Errorf("merged-from recorder still owns %d roots", len(w1.roots))
	}
}

func TestMergeWithoutOpenSpanAddsRoots(t *testing.T) {
	r := New()
	w := New()
	w.Start("phase").End()
	w.Add(CSCCs, 2)
	r.Merge(w)
	e := r.ExportData()
	if len(e.Phases) != 1 || e.Phases[0].Name != "phase" {
		t.Errorf("roots = %+v", e.Phases)
	}
	if r.Counter(CSCCs) != 2 {
		t.Errorf("sccs = %d, want 2", r.Counter(CSCCs))
	}
	// Spans started on r after the merge nest correctly (adopted spans
	// must not be left as r.cur).
	after := r.Start("after")
	after.End()
	if len(r.ExportData().Phases) != 2 {
		t.Errorf("post-merge root count = %d, want 2", len(r.ExportData().Phases))
	}
}

func TestMergeNilSafe(t *testing.T) {
	var nilRec *Recorder
	nilRec.Merge(New()) // must not panic
	r := New()
	r.Merge(nil)
	r.Add(CSCCs, 1)
	if r.Counter(CSCCs) != 1 {
		t.Error("recorder broken after merging nil")
	}
}

func TestJSONExport(t *testing.T) {
	r := New()
	s := r.Start("analyze")
	c := r.Start("lr0")
	c.End()
	s.End()
	r.Add(CSCCs, 12)
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var e Export
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if e.Schema != SchemaVersion {
		t.Errorf("schema = %q, want %q", e.Schema, SchemaVersion)
	}
	if len(e.Phases) != 1 || e.Phases[0].Name != "analyze" || len(e.Phases[0].Children) != 1 {
		t.Errorf("phases = %+v", e.Phases)
	}
	if e.Counters[CSCCs] != 12 {
		t.Errorf("counters = %v", e.Counters)
	}
}

func TestJSONClosesOpenSpans(t *testing.T) {
	r := New()
	r.Start("left-open")
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var e Export
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if len(e.Phases) != 1 || e.Phases[0].Name != "left-open" {
		t.Errorf("phases = %+v", e.Phases)
	}
}

func TestTreeRendering(t *testing.T) {
	r := New()
	s := r.Start("analyze")
	c := r.Start("lr0-construction")
	c.End()
	s.End()
	r.Add(CBitsetUnions, 42)
	out := r.Tree()
	if !strings.Contains(out, "analyze") || !strings.Contains(out, "  lr0-construction") {
		t.Errorf("tree missing nested phases:\n%s", out)
	}
	if !strings.Contains(out, "counters:") || !strings.Contains(out, "bitset_unions") {
		t.Errorf("tree missing counters:\n%s", out)
	}
}

func TestFormatHelpers(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{500 * time.Nanosecond, "0.5µs"},
		{2500 * time.Microsecond, "2.50ms"},
		{3 * time.Second, "3.000s"},
	}
	for _, c := range cases {
		if got := fmtDuration(c.d); got != c.want {
			t.Errorf("fmtDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
	if got := fmtBytes(512); got != "512B" {
		t.Errorf("fmtBytes(512) = %q", got)
	}
	if got := fmtBytes(64 * 1024); got != "64KB" {
		t.Errorf("fmtBytes(64K) = %q", got)
	}
	if got := fmtBytes(32 * 1024 * 1024); got != "32MB" {
		t.Errorf("fmtBytes(32M) = %q", got)
	}
}

// TestTotalAllocMatchesMemStats: the runtime/metrics counter spans are
// sampled from is the one runtime.MemStats reports as TotalAlloc.  Two
// readings bracket MemStats; at a quiescent point, when nothing else
// allocated between them, all three agree exactly.  A reading
// allocates nothing.
func TestTotalAllocMatchesMemStats(t *testing.T) {
	r := New()
	var m runtime.MemStats
	agreed := false
	for attempt := 0; attempt < 20 && !agreed; attempt++ {
		runtime.GC()
		before := r.totalAlloc()
		runtime.ReadMemStats(&m)
		after := r.totalAlloc()
		if before > m.TotalAlloc || m.TotalAlloc > after {
			t.Fatalf("MemStats.TotalAlloc %d outside the bracketing readings [%d, %d]", m.TotalAlloc, before, after)
		}
		agreed = before == after
	}
	if !agreed {
		t.Error("no quiescent reading in 20 attempts: totalAlloc and MemStats.TotalAlloc never agreed")
	}
	if n := testing.AllocsPerRun(100, func() { r.totalAlloc() }); n != 0 {
		t.Errorf("totalAlloc allocates %.0f times per reading, want 0", n)
	}
}
