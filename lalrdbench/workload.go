package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/grammars"
)

// A workload is one traffic mix: a fixed, seeded sequence of corpus
// passes sent to one endpoint, every response expecting one
// X-Repro-Cache outcome.  README.md gives the reason for each.
type workload struct {
	name string
	// path is the endpoint every timed op posts to.
	path string
	// outcome is the X-Repro-Cache value every timed op must carry.
	outcome string
	// nonce gives each op's source a unique trailing comment, so each
	// op has a fresh fingerprint while the analysis work is unchanged.
	nonce bool
	// peer runs two nodes: ops go to a requester whose cache starts
	// each pass empty, for grammars the other node owns.  The requester
	// has no store: its fill-path store write is the Store.PutBytes
	// that analyze-cold measures, and those disk writes made this
	// workload's timings swing by a fifth from run to run.
	peer bool
	// fill sends untimed nonce'd analyze passes in setup until twice the
	// response cache's byte budget has gone into it, so the cache is
	// full and evicting, and the live heap at its steady size, when
	// timing starts.
	fill bool
	// warm is the number of untimed warm-up passes after the fill.
	warm int
	// rate is the nominal ops/s of this workload on the 2-CPU host the
	// benchmark was calibrated on; with --seconds it fixes the op
	// count, so a run times a fixed sequence, never a time window.
	rate float64
}

var workloads = []*workload{
	{
		name: "analyze-cold", path: "/v1/analyze", outcome: "miss",
		nonce: true, fill: true, warm: 2, rate: 500,
	},
	{
		name: "analyze-hot", path: "/v1/analyze", outcome: "hit",
		fill: true, warm: 100, rate: 10000,
	},
	{
		name: "lint", path: "/v1/lint", outcome: "miss",
		nonce: true, fill: true, warm: 2, rate: 105,
	},
	{
		name: "analyze-peer", path: "/v1/analyze", outcome: "peer",
		nonce: true, peer: true, warm: 5, rate: 2000,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

// minTimedOps is the least number of timed ops in a run: two latency
// blocks.
const minTimedOps = 2 * latBlockOps

// capFactor bounds a run on a slowed host: once the timed phase has
// run capFactor x --seconds and holds minTimedOps, it stops at the next
// pass boundary.  Every pass holds each grammar once, so a cut run
// times the same mix, only fewer times; at the nominal rate the cap is
// never reached.
const capFactor = 1.5

// overTime reports whether a timed phase that has run for elapsed and
// timed ops ops should stop before its next pass.
func overTime(seconds int, elapsed time.Duration, ops int) bool {
	return ops >= minTimedOps && elapsed.Seconds() > capFactor*float64(seconds)
}

// timedPasses is the number of corpus passes a run times: enough for
// --seconds at the workload's nominal rate, and at least minTimedOps.
func (w *workload) timedPasses(seconds, corpusLen int) int {
	ops := max(int(float64(seconds)*w.rate), minTimedOps)
	return (ops + corpusLen - 1) / corpusLen
}

// corpusGrammar is one corpus entry as the benchmark sends it.
type corpusGrammar struct {
	grammars.Entry
	idx  int    // position in the corpus
	file string // request filename; the grammar's name derives from it
	src  string // base source, newline-terminated
	// prefix is the request body up to the end of the source inside the
	// JSON grammar string; the nonce and the closing are appended per op.
	prefix map[string][]byte
}

func loadCorpus() []*corpusGrammar {
	var out []*corpusGrammar
	for i, e := range grammars.All() {
		src := e.Src
		if !strings.HasSuffix(src, "\n") {
			src += "\n"
		}
		cg := &corpusGrammar{Entry: e, idx: i, file: e.Name + ".y", src: src, prefix: map[string][]byte{}}
		enc, err := json.Marshal(src)
		if err != nil {
			panic(err) // a string always marshals
		}
		for _, path := range []string{"/v1/analyze", "/v1/lint"} {
			p := fmt.Sprintf(`{"filename":%q,"grammar":`, cg.file)
			cg.prefix[path] = append([]byte(p), enc[:len(enc)-1]...)
		}
		out = append(out, cg)
	}
	return out
}

// nonceComment is the trailing line that makes an op's source unique.
// It sits after the last grammar line, so line numbers, the grammar
// and its analysis are those of the base source.
func nonceComment(nonce string) string { return "// nonce " + nonce + "\n" }

// source returns the grammar text an op with this nonce sends.
func (cg *corpusGrammar) source(nonce string) string {
	if nonce == "" {
		return cg.src
	}
	return cg.src + nonceComment(nonce)
}

// appendBody appends the JSON request body of one op to buf.
func (cg *corpusGrammar) appendBody(buf []byte, path, nonce string) []byte {
	buf = append(buf, cg.prefix[path]...)
	if nonce != "" {
		buf = append(buf, `// nonce `...)
		buf = append(buf, nonce...)
		buf = append(buf, `\n`...)
	}
	return append(buf, `"}`...)
}

// Nonce streams: every op of a run draws its nonce from (seed, stream,
// pass, index), and each phase of a run uses its own stream, so no two
// ops of one run share a fingerprint.
const (
	streamFill uint64 = iota + 1
	streamBase
	streamWarm
	streamTimed
	streamBaseline
	streamTraced
	streamPeer
)

// nonce derives a 16-hex-digit nonce; fixed width keeps every op of a
// grammar the same size.
func nonce(seed, stream, pass, index uint64) string {
	x := splitmix(seed ^ splitmix(stream<<48^pass<<16^index))
	return fmt.Sprintf("%016x", x)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// order is the seeded op order of one pass over n grammars.
func order(seed, stream, pass uint64, n int) []int {
	return rand.New(rand.NewPCG(seed, splitmix(stream<<32^pass))).Perm(n)
}
