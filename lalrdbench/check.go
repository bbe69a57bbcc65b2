package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro"
	"repro/internal/cache"
	"repro/internal/export"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/server"
)

// methodName is the look-ahead method every analyze op uses: the
// server's default ("dp"), in the long form it fingerprints and reports.
var methodName = repro.MethodDeRemerPennello.String()

// ref is the expected outcome for one corpus grammar, built once in
// setup from the library: repro.Analyze → export.Build for analyze,
// repro.Lint → lint.WriteJSON for lint.  The traced run also replays
// layers from it.
type ref struct {
	*corpusGrammar
	g   *repro.Grammar
	res *repro.Result
	rep *lint.Report // nil unless the workload lints

	body  map[string][]byte // expected response body per endpoint path
	fpOff map[string]int    // offset of the fingerprint value in body
	// counts are the pipeline's cost-model counters for one op of this
	// grammar, per endpoint path (a Recorder replay).
	counts map[string]map[string]int64
}

// buildRefs builds the expected bodies for every corpus grammar and
// every endpoint in paths, and checks each analyze body's unresolved
// conflict counts against the hand-pinned WantSR/WantRR.
func buildRefs(corpus []*corpusGrammar, paths []string) ([]*ref, error) {
	refs := make([]*ref, len(corpus))
	for i, cg := range corpus {
		r := &ref{corpusGrammar: cg, body: map[string][]byte{}, fpOff: map[string]int{}, counts: map[string]map[string]int64{}}
		var err error
		if r.g, err = repro.LoadGrammar(cg.file, cg.src); err != nil {
			return nil, fmt.Errorf("%s: %w", cg.Name, err)
		}
		for _, path := range paths {
			rec := repro.NewRecorder()
			switch path {
			case "/v1/analyze":
				if r.res, err = repro.Analyze(r.g, repro.Options{Recorder: rec}); err != nil {
					return nil, fmt.Errorf("%s: analyze: %w", cg.Name, err)
				}
				rep := export.Build(r.res.Automaton, r.res.Lookahead, r.res.Tables, r.res.DP, methodName)
				if sr, rr := unresolved(rep); sr != cg.WantSR || rr != cg.WantRR {
					return nil, fmt.Errorf("%s: %d/%d unresolved S/R, R/R conflicts, want %d/%d", cg.Name, sr, rr, cg.WantSR, cg.WantRR)
				}
				r.body[path], err = analyzeBody(cache.Fingerprint(cg.src, methodName), rep)
			case "/v1/lint":
				if r.rep, err = repro.Lint(r.g, repro.LintOptions{File: cg.file, MinSeverity: lint.Info, Recorder: rec}); err != nil {
					return nil, fmt.Errorf("%s: lint: %w", cg.Name, err)
				}
				r.body[path], err = lintBody(cache.Fingerprint(cg.src, "lint"), r.g, r.rep)
			default:
				return nil, fmt.Errorf("no reference for endpoint %s", path)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", cg.Name, err)
			}
			if r.fpOff[path], err = fingerprintOffset(r.body[path]); err != nil {
				return nil, fmt.Errorf("%s %s reference: %w", cg.Name, path, err)
			}
			r.counts[path] = counters(rec)
		}
		refs[i] = r
	}
	return refs, nil
}

// unresolved counts the report's unresolved shift/reduce and
// reduce/reduce conflicts.
func unresolved(rep *export.Report) (sr, rr int) {
	for _, c := range rep.Conflicts {
		switch {
		case !c.Unresolved:
		case c.Kind == "shift/reduce":
			sr++
		default:
			rr++
		}
	}
	return sr, rr
}

// marshalBody renders a response body in the server's canonical form:
// indented JSON with a trailing newline.
func marshalBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func analyzeBody(fp string, rep *export.Report) ([]byte, error) {
	return marshalBody(server.AnalyzeResponse{
		Schema: server.Schema, Kind: "analyze",
		Fingerprint: fp, Method: methodName, Report: rep,
	})
}

func lintBody(fp string, g *repro.Grammar, rep *lint.Report) ([]byte, error) {
	var doc bytes.Buffer
	if err := lint.WriteJSON(&doc, []*lint.Report{rep}, []*repro.Grammar{g}); err != nil {
		return nil, err
	}
	return marshalBody(server.LintResponse{
		Schema: server.Schema, Kind: "lint",
		Fingerprint: fp, Lint: bytes.TrimSpace(doc.Bytes()),
		Ambig: ambigSummary(rep),
	})
}

// ambigSummary totals the ambiguity verdicts the way the server's
// response header does: nil when the pass reported none.
func ambigSummary(rep *lint.Report) *server.AmbigSummary {
	var sum server.AmbigSummary
	found := false
	for _, d := range rep.Diagnostics {
		switch d.Code {
		case lint.CodeAmbiguous:
			sum.Proven++
		case lint.CodeNotAmbiguous:
			sum.Unambiguous++
		case lint.CodeAmbigUndecided:
			sum.Undecided++
		default:
			continue
		}
		found = true
	}
	if !found {
		return nil
	}
	return &sum
}

func counters(rec *obs.Recorder) map[string]int64 {
	out := map[string]int64{}
	rec.Do(func(kv obs.KV) { out[kv.Name] = kv.Value })
	return out
}

var fingerprintKey = []byte(`"fingerprint": "`)

// fpLen is the length of a hex SHA-256 fingerprint.
const fpLen = 64

// fingerprintOffset finds the fingerprint value in a response body: it
// must appear exactly once.
func fingerprintOffset(body []byte) (int, error) {
	if n := bytes.Count(body, fingerprintKey); n != 1 {
		return 0, fmt.Errorf("fingerprint field appears %d times", n)
	}
	off := bytes.Index(body, fingerprintKey) + len(fingerprintKey)
	if off+fpLen > len(body) {
		return 0, fmt.Errorf("truncated fingerprint")
	}
	return off, nil
}

// sameBody reports whether got equals want byte for byte with the
// fingerprint value masked (it differs per nonce); the masked bytes
// must still be a lowercase hex fingerprint.
func sameBody(got, want []byte, fpOff int) bool {
	if len(got) != len(want) || !bytes.Equal(got[:fpOff], want[:fpOff]) || !bytes.Equal(got[fpOff+fpLen:], want[fpOff+fpLen:]) {
		return false
	}
	for _, c := range got[fpOff : fpOff+fpLen] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
