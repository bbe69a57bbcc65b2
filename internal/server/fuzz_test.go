package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/grammars"
	"repro/internal/guard"
)

// FuzzServe sends arbitrary request bodies, under arbitrary HTTP
// methods, to the three analysis endpoints of one governed server.
// Whatever the input, each answer must be a 2xx or a 4xx, or a 504
// whose payload says the request deadline fired.  A 500 means the
// handler let a fault or an unclassified error reach the client, and a
// hang trips the client's timeout.  The seeds are the corpus grammars
// and their mutants in each endpoint's request shape, plus truncated,
// oversized and mistyped JSON, unknown methods and out-of-range knobs.
func FuzzServe(f *testing.F) {
	seed := func(verb string, v any) {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(verb, string(body))
	}
	for _, e := range grammars.All() {
		seed("POST", AnalyzeRequest{Grammar: e.Src, Filename: e.Name + ".y"})
		seed("POST", BatchRequest{Grammars: []BatchGrammar{{Name: e.Name, Grammar: e.Src}}})
		for _, m := range grammars.Mutations(e.Src, 1, 2) {
			seed("POST", AnalyzeRequest{Grammar: m})
		}
	}
	const tiny = "%token A\n%%\ns : A ;\n"
	seed("POST", AnalyzeRequest{Grammar: tiny, Method: "nope"})
	seed("POST", AnalyzeRequest{Grammar: tiny, Method: "lr1", TimeoutMS: 1})
	seed("POST", AnalyzeRequest{Grammar: "%%\ns : s s | ;\n", Limits: &LimitsPayload{MaxStates: 1, MaxRelationEdges: -1}})
	seed("POST", LintRequest{Grammar: tiny, Enable: []string{"nope"}})
	seed("POST", LintRequest{Grammar: tiny, MinSeverity: "loud", Werror: true})
	seed("POST", LintRequest{Grammar: tiny, AmbigMaxLen: 1 << 30, AmbigMaxPairs: -5})
	seed("POST", BatchRequest{Grammars: []BatchGrammar{{Grammar: ""}, {Grammar: tiny}}, Policy: "failfast", Workers: 1 << 20})
	seed("POST", BatchRequest{Grammars: []BatchGrammar{{Grammar: tiny}}, Policy: "bogus", Method: "slr"})
	seed("POST", BatchRequest{Grammars: []BatchGrammar{{Grammar: "%token A\n%%\ns : s ;\n"}}, TimeoutMS: -1})
	for _, body := range []string{
		`{"grammar": "%token A\n%%\ns : A ;\n"`, // truncated
		`{"grammar": 42}`,
		`{"grammars": "x", "policy": ["collect"]}`,
		`{"grammar": "` + tiny + `", "limits": {"max_states": "many"}}`,
		`{"grammar": "x", "bogus": 1}`,
		`{"grammar": "\u0000\ud800"}`,
		`[]`, `null`, ``, `{}`, `{"grammar": ""}`,
		`{"grammar": "` + strings.Repeat("A", maxBodyBytes) + `"}`, // past the body limit
	} {
		f.Add("POST", body)
	}
	f.Add("GET", `{"grammar": "`+tiny+`"}`)
	f.Add("PATCH", `{}`)
	f.Add("BREW", `{}`)

	ts := httptest.NewServer(New(Config{
		CacheBytes:     4 << 20,
		MaxInflight:    4,
		Limits:         guard.Limits{MaxStates: 500, MaxLR1States: 1000},
		RequestTimeout: 5 * time.Second,
	}))
	f.Cleanup(ts.Close)
	client := &http.Client{Timeout: 30 * time.Second}

	f.Fuzz(func(t *testing.T, verb, body string) {
		for _, path := range []string{"/v1/analyze", "/v1/lint", "/v1/batch"} {
			req, err := http.NewRequest(verb, ts.URL+path, strings.NewReader(body))
			if err != nil {
				return // not a valid HTTP method token; nothing was sent
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", verb, path, err)
			}
			out, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s %s: reading the answer: %v", verb, path, err)
			}
			switch code := resp.StatusCode; {
			case code >= 200 && code < 300, code >= 400 && code < 500:
			case code == http.StatusGatewayTimeout:
				var er ErrorResponse
				if err := json.Unmarshal(out, &er); err != nil || er.Error.Kind != "canceled" {
					t.Errorf("%s %s: 504 that is not a fired deadline: %.300s", verb, path, out)
				}
			default:
				t.Errorf("%s %s: status %d: %.300s", verb, path, code, out)
			}
		}
	})
}
