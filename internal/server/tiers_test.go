package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"

	"repro"
	"repro/internal/cache"
	"repro/internal/driver"
	"repro/internal/export"
	"repro/internal/grammars"
	"repro/internal/lint"
	"repro/internal/obs"
)

// tierInput is one grammar the tier-equivalence test serves, with the
// library's own encoding of its /v1/analyze and /v1/lint bodies.
type tierInput struct {
	name, src     string
	mutant        bool
	analyze, lint []byte
}

func (in tierInput) filename() string { return in.name + ".y" }

func (in tierInput) fp() string { return repro.Fingerprint(in.src, repro.Options{}) }

// libraryBodies encodes src's analyze and lint bodies straight from
// the library: repro.Analyze through export.Build and encoding/json,
// and repro.Lint through lint.WriteJSON, each in the repro-api/1
// envelope the server answers with.
func libraryBodies(in tierInput) (tierInput, error) {
	src := in.src
	g, err := repro.LoadGrammar(in.filename(), src)
	if err != nil {
		return in, err
	}
	res, err := repro.Analyze(g, repro.Options{})
	if err != nil {
		return in, err
	}
	m := repro.MethodDeRemerPennello.String()
	if in.analyze, err = marshalBody(AnalyzeResponse{
		Schema: Schema, Kind: "analyze", Fingerprint: cache.Fingerprint(src, m), Method: m,
		Report: export.Build(res.Automaton, res.Lookahead, res.Tables, res.DP, m),
	}); err != nil {
		return in, err
	}
	if g, err = repro.LoadGrammar(in.filename(), src); err != nil {
		return in, err
	}
	rep, err := repro.Lint(g, repro.LintOptions{File: in.filename()})
	if err != nil {
		return in, err
	}
	var doc bytes.Buffer
	if err := lint.WriteJSON(&doc, []*lint.Report{rep}, []*repro.Grammar{g}); err != nil {
		return in, err
	}
	in.lint, err = marshalBody(LintResponse{
		Schema: Schema, Kind: "lint", Fingerprint: cache.Fingerprint(src, "lint"),
		Lint: jsonRawBody(bytes.TrimSpace(doc.Bytes())), Ambig: ambigSummary(rep),
	})
	return in, err
}

// tierInputs returns every corpus grammar and the grammars.Mutations
// of each for seeds 1–6, with their library bodies.  Mutants the
// library rejects are skipped and counted; a corpus grammar must not
// be rejected.
func tierInputs(t *testing.T) (ins []tierInput, mutants, rejected int) {
	t.Helper()
	var all []tierInput
	for _, e := range grammars.All() {
		all = append(all, tierInput{name: e.Name, src: e.Src})
		for seed := int64(1); seed <= 6; seed++ {
			for _, src := range grammars.Mutations(e.Src, seed, 4) {
				mutants++
				all = append(all, tierInput{name: fmt.Sprintf("%s-mut%d", e.Name, mutants), src: src, mutant: true})
			}
		}
	}
	// The library encodings are independent; spread them over the CPUs.
	errs := make([]error, len(all))
	driver.Run(context.Background(), len(all), driver.Options{}, func(_ context.Context, i int, _ *obs.Recorder) error {
		all[i], errs[i] = libraryBodies(all[i])
		return nil
	})
	for i, in := range all {
		switch {
		case errs[i] == nil:
			ins = append(ins, in)
		case !in.mutant:
			t.Fatalf("library rejected corpus grammar %s: %v", in.name, errs[i])
		default:
			rejected++
		}
	}
	return ins, mutants, rejected
}

// servedAs posts in to path on ts and checks the answer: status 200,
// an X-Repro-Cache outcome among want, and the body byte-identical to
// the library's.  Any outcome but a miss ran no pipeline, so its
// trace entry must carry that outcome and zero phases.  It returns the
// outcome.
func servedAs(t *testing.T, ts *httptest.Server, path string, in tierInput, want ...string) string {
	t.Helper()
	var req any = AnalyzeRequest{Grammar: in.src, Filename: in.filename()}
	lib := in.analyze
	if path == "/v1/lint" {
		req, lib = LintRequest{Grammar: in.src, Filename: in.filename()}, in.lint
	}
	resp, body := post(t, ts, path, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", path, in.name, resp.StatusCode, body)
	}
	out := resp.Header.Get("X-Repro-Cache")
	if !slices.Contains(want, out) {
		t.Errorf("%s %s: X-Repro-Cache = %q, want one of %v", path, in.name, out, want)
	}
	if !bytes.Equal(body, lib) {
		t.Errorf("%s %s (%s): body differs from the library's (%d vs %d bytes)", path, in.name, out, len(body), len(lib))
	}
	if out != "miss" {
		tr := fetchTrace(t, ts, resp.Header.Get("X-Repro-Request-Id"))
		if len(tr.Entries) != 1 || tr.Entries[0].Outcome != out || len(tr.Entries[0].Phases) != 0 {
			t.Errorf("%s %s (%s): trace entries %+v, want one %s entry with zero phases", path, in.name, out, tr.Entries, out)
		}
	}
	return out
}

// TestTierEquivalence holds every cache tier to the library: on every
// corpus grammar and its mutants, /v1/analyze answers miss, hit, then
// frozen from a second server on the same store and hit again, and a
// 2-node fleet answers peer; /v1/lint answers miss then hit.  Every
// body is byte-identical to the library's own encoding, and every
// served tier's trace is phase-free.  The analyze tiers run a second
// time under a 256 KiB cache, whose evictions and rejections must not
// change a byte.
func TestTierEquivalence(t *testing.T) {
	ins, mutants, rejected := tierInputs(t)
	if 2*rejected >= mutants {
		t.Fatalf("library rejected %d of %d mutants; most must be accepted", rejected, mutants)
	}
	texts := map[string]bool{}
	for _, in := range ins {
		texts[in.fp()] = true
	}
	t.Logf("%d grammars, %d distinct texts; %d of %d mutants rejected by the library and skipped",
		len(ins), len(texts), rejected, mutants)

	for _, c := range []struct {
		name       string
		cacheBytes int64
		repeat     []string // outcomes a repeated request may take
	}{
		// Every analyze body fits a shard of 8 MiB, so a repeat hits.
		{"8MiB", 8 << 20, []string{"hit"}},
		// A body larger than a shard's budget is not cached, so its
		// repeat recomputes nothing: it loads from the store.
		{"256KiB", 256 << 10, []string{"hit", "frozen"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			dir := filepath.Join(t.TempDir(), "store")
			// The store keeps one record per fingerprint, but mutants of
			// different seeds can share a text under different names.  A
			// text the store already holds answers frozen, under any
			// name: the request's own name is spliced in.
			first := newTestServer(t, Config{CacheBytes: c.cacheBytes, StoreDir: dir})
			frozenHits, stored := int64(0), map[string]bool{}
			for _, in := range ins {
				want := "miss"
				if stored[in.fp()] {
					want = "frozen"
				}
				stored[in.fp()] = true
				for _, out := range []string{
					servedAs(t, first, "/v1/analyze", in, want),
					servedAs(t, first, "/v1/analyze", in, c.repeat...),
				} {
					if out == "frozen" {
						frozenHits++
					}
				}
			}
			if got := metricz(t, first).Counters["frozen_hits"]; got != frozenHits {
				t.Errorf("first life: frozen_hits = %d after %d frozen answers", got, frozenHits)
			}
			first.Close()
			second := newTestServer(t, Config{CacheBytes: c.cacheBytes, StoreDir: dir})
			frozenHits = 0
			for _, in := range ins {
				for _, out := range []string{
					servedAs(t, second, "/v1/analyze", in, "frozen"),
					servedAs(t, second, "/v1/analyze", in, c.repeat...),
				} {
					if out == "frozen" {
						frozenHits++
					}
				}
			}
			if got := metricz(t, second).Counters["frozen_hits"]; got != frozenHits {
				t.Errorf("frozen_hits = %d after %d frozen answers", got, frozenHits)
			}

			// A fill stores the owner's record on the filled node, so a
			// text's later names answer frozen on both nodes.
			fleet := newFleet(t, 2, func(_ int, cfg *Config) { cfg.CacheBytes = c.cacheBytes }, nil)
			filled := map[string]bool{}
			for _, in := range ins {
				owner, other := fleet[0], fleet[1]
				if fleet[0].cl.Owner(in.fp()) != owner.url {
					owner, other = other, owner
				}
				if filled[in.fp()] {
					servedAs(t, owner.ts, "/v1/analyze", in, "frozen")
					servedAs(t, other.ts, "/v1/analyze", in, "frozen")
				} else {
					servedAs(t, owner.ts, "/v1/analyze", in, "miss")
					servedAs(t, other.ts, "/v1/analyze", in, "peer")
				}
				filled[in.fp()] = true
				servedAs(t, other.ts, "/v1/analyze", in, c.repeat...)
			}
			fills := metricz(t, fleet[0].ts).Counters["peer_fills"] + metricz(t, fleet[1].ts).Counters["peer_fills"]
			if fills != int64(len(filled)) {
				t.Errorf("peer_fills = %d over the fleet after %d peer answers", fills, len(filled))
			}
		})
	}

	t.Run("lint", func(t *testing.T) {
		t.Parallel()
		ts := newTestServer(t, Config{CacheBytes: 64 << 20})
		for _, in := range ins {
			servedAs(t, ts, "/v1/lint", in, "miss")
			servedAs(t, ts, "/v1/lint", in, "hit")
		}
	})
}
