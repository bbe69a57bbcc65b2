package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"repro"
	"repro/internal/grammars"
)

// peerFillRig is a 2-node loopback fleet whose requester has neither a
// cache nor a store, so every request it answers is a peer fill of one
// csub variant from the ring owner.  fill sends one request and
// discards the body; record is the owner's frozen record.
func peerFillRig(tb testing.TB) (fill func() error, record []byte) {
	tb.Helper()
	nodes := newFleet(tb, 2, func(i int, cfg *Config) {
		if i == 0 {
			cfg.CacheBytes, cfg.StoreDir = 0, ""
		}
	}, nil)
	requester, owner := nodes[0], nodes[1]
	csub, err := grammars.Get("csub")
	if err != nil {
		tb.Fatal(err)
	}
	var src, fp string
	for i := 0; i < 256 && src == ""; i++ {
		s := csub.Src + strings.Repeat("\n", i)
		if f := repro.Fingerprint(s, repro.Options{}); requester.cl.Owner(f) == owner.url {
			src, fp = s, f
		}
	}
	if src == "" {
		tb.Fatal("no csub variant owned by the second node")
	}
	req, err := json.Marshal(AnalyzeRequest{Grammar: src, Filename: "csub.y"})
	if err != nil {
		tb.Fatal(err)
	}
	if resp, _ := post(tb, owner.ts, "/v1/analyze", json.RawMessage(req)); resp.StatusCode != http.StatusOK {
		tb.Fatalf("owner miss: status %d", resp.StatusCode)
	}
	resp, record := get(tb, owner.ts, "/v1/peer/table/"+fp)
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("owner has no record: status %d", resp.StatusCode)
	}
	url := requester.ts.URL + "/v1/analyze"
	fill = func() error {
		resp, err := http.Post(url, "application/json", bytes.NewReader(req))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if out := resp.Header.Get("X-Repro-Cache"); resp.StatusCode != http.StatusOK || out != "peer" {
			return fmt.Errorf("fill answered %d %q, want 200 peer", resp.StatusCode, out)
		}
		return nil
	}
	return fill, record
}

// TestPeerFillAllocBound holds the fill path to moving its record
// about once: the bytes allocated per peer fill, over both nodes (they
// share this process) and the client, stay under twice the record's
// length (the bound is lifted under the race detector; see
// raceEnabled).  An owner that reads its file into a fresh buffer, or a
// requester that grows its read by doubling, costs several records per
// fill.
func TestPeerFillAllocBound(t *testing.T) {
	fill, record := peerFillRig(t)
	for range 5 { // connections, pools and breaker state settle
		if err := fill(); err != nil {
			t.Fatal(err)
		}
	}
	const fills = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range fills {
		if err := fill(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	per := float64(m1.TotalAlloc-m0.TotalAlloc) / fills
	ratio := per / float64(len(record))
	t.Logf("%.1f KiB allocated per fill of a %.1f KiB record (%.2f×)", per/1024, float64(len(record))/1024, ratio)
	if ratio > 2 && !raceEnabled {
		t.Errorf("a peer fill allocates %.2f× its record's length, want at most 2×", ratio)
	}
}

// BenchmarkPeerFill measures one peer fill of csub over loopback, both
// nodes and the client in this process: B/op and allocs/op cover the
// owner's read and the requester's.
func BenchmarkPeerFill(b *testing.B) {
	fill, record := peerFillRig(b)
	b.SetBytes(int64(len(record)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := fill(); err != nil {
			b.Fatal(err)
		}
	}
}
