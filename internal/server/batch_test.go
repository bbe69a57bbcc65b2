package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/export"
	"repro/internal/grammars"
)

// hostileBatchGrammar names its terminals after the strings export's
// TestAppendJSONHostileStrings holds the report writer to: quotes,
// backslashes, HTML, control bytes, invalid UTF-8, U+2028/U+2029 and
// multibyte text.  The grammar is ambiguous, so the report's conflict
// section carries the names too.
func hostileBatchGrammar() string {
	lits := []string{
		`"quoted"`, `back\slash`, "<script>&amp;</script>", "\b\f\n\r\t",
		"\x00\x01\x1f\x7f", "bad \xff\xfe utf-8 \xc3", "trunc \xe2\x80",
		"line\xe2\x80\xa8para\xe2\x80\xa9", "é ü 中文 😀", "→ . $end",
	}
	esc := strings.NewReplacer(`\`, `\\`, `'`, `\'`, "\n", `\n`, "\t", `\t`)
	q := make([]string, len(lits))
	for i, s := range lits {
		q[i] = "'" + esc.Replace(s) + "'"
	}
	return fmt.Sprintf("%%%%\ne : e %s e | %s l | %s | %s ;\nl : | l %s | %s %s %s %s %s ;\n",
		q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7], q[8], q[9])
}

// reflectBatch is the BatchResponse shape the server encoded before
// batch entries carried their cached report bytes: each report decoded
// into an export.Report and marshalled again by reflection.
type reflectBatch struct {
	Schema  string `json:"schema"`
	Kind    string `json:"kind"`
	Method  string `json:"method"`
	Results []struct {
		Name        string         `json:"name"`
		Fingerprint string         `json:"fingerprint"`
		CacheHit    bool           `json:"cache_hit"`
		Report      *export.Report `json:"report,omitempty"`
		Error       *ErrorPayload  `json:"error,omitempty"`
	} `json:"results"`
}

// TestBatchBodyMatchesReflection holds /v1/batch to the reflection
// oracle on a miss batch and on the same batch as hits: the corpus, a
// mutant per corpus grammar, the hostile-name grammar under a hostile
// entry name, and a failing entry.
func TestBatchBodyMatchesReflection(t *testing.T) {
	ts := newTestServer(t, Config{CacheBytes: 64 << 20})
	var req BatchRequest
	for _, e := range grammars.All() {
		req.Grammars = append(req.Grammars, BatchGrammar{Name: e.Name, Grammar: e.Src})
		for i, m := range grammars.Mutations(e.Src, 1, 1) {
			req.Grammars = append(req.Grammars, BatchGrammar{Name: fmt.Sprintf("%s-m%d", e.Name, i), Grammar: m})
		}
	}
	req.Grammars = append(req.Grammars,
		BatchGrammar{Name: "<b>&amp;\u2028\"q\"\\", Grammar: hostileBatchGrammar()},
		BatchGrammar{Name: "bad", Grammar: "%% : ;"},
		BatchGrammar{Grammar: danglingElse})

	for _, pass := range []string{"miss", "hit"} {
		resp, body := post(t, ts, "/v1/batch", req)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", pass, resp.StatusCode, body)
		}
		var want reflectBatch
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		reports := 0
		for i := range want.Results {
			r := &want.Results[i]
			if r.CacheHit != (pass == "hit") && r.Error == nil {
				t.Errorf("%s: %q cache_hit = %v", pass, r.Name, r.CacheHit)
			}
			if r.Report == nil {
				continue
			}
			reports++
			// The oracle's report is the analyze body's, decoded.
			filename := "grammar.y"
			if n := req.Grammars[i].Name; n != "" {
				filename = n + ".y"
			}
			_, ab := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: req.Grammars[i].Grammar, Filename: filename})
			var env AnalyzeResponse
			if err := json.Unmarshal(ab, &env); err != nil {
				t.Fatal(err)
			}
			r.Report = env.Report
		}
		if reports < len(req.Grammars)-1 {
			t.Fatalf("%s: %d reports for %d entries", pass, reports, len(req.Grammars))
		}
		wantBody, err := marshalBody(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, wantBody) {
			i := 0
			for i < len(body) && i < len(wantBody) && body[i] == wantBody[i] {
				i++
			}
			t.Fatalf("%s: batch body differs from the reflection path at byte %d of %d/%d:\n%.200s\nwant\n%.200s",
				pass, i, len(body), len(wantBody), body[i:], wantBody[min(i, len(wantBody)):])
		}
	}
}
