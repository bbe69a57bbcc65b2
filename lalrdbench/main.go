// Command lalrdbench is the repository's end-to-end benchmark.  It
// drives in-process lalrd nodes (internal/server behind loopback
// listeners) from one closed-loop client that sends one request at a
// time, checks every response against a library-built reference, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics
// of a separate traced run (--trace 1).  The last line of its output
// is one JSON object.  See README.md for the workloads, the metrics
// and what each layer metric should move.
//
// Run it from the repository root:
//
//	bash lalrdbench/run.sh --workload analyze-cold --seed 1 --seconds 10 --trace 0
//	bash lalrdbench/run.sh --workload all --seed 1 --seconds 10
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// processStart approximates the process start for setup_s.
var processStart = time.Now()

// runsDir holds each run's frozen stores, under the directory the
// build already uses; a run removes its own subdirectory on exit.
const runsDir = ".bench_build/lalrdbench-run"

// setupReps is how many times a run sets up; setup_s is their median
// and the last set-up is the one timed.
const setupReps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lalrdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: analyze-cold, analyze-hot, lint, analyze-peer, or all")
	seed := fs.Uint64("seed", 1, "seed of the op nonces and the op order")
	seconds := fs.Int("seconds", 10, "nominal timed seconds; fixes the op count through the workload's calibrated rate")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "lalrdbench: want --seconds >= 1, --trace 0 or 1, and no arguments")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "lalrdbench:", err)
		return 2
	}
	runDir := filepath.Join(runsDir, strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(runDir)
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, *seed, *seconds, runDir, stdout)
	} else {
		res, err = runTimed(w, *seed, *seconds, runDir, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "lalrdbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "lalrdbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// setUp builds the workload's rig reps times and keeps the last,
// returning the median set-up time.  The first set-up counts from
// process start; tearing down the previous rig is not counted.
func setUp(w *workload, seed uint64, runDir string, traced bool, reps int) (*rig, float64, error) {
	var times []float64
	var r *rig
	for k := range reps {
		if r != nil {
			r.close()
		}
		start := time.Now()
		if k == 0 {
			start = processStart
		}
		var err error
		if r, err = newRig(w, seed, filepath.Join(runDir, fmt.Sprintf("setup-%d", k)), traced); err != nil {
			return nil, 0, err
		}
		if err := r.prepare(); err != nil {
			r.close()
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return r, median(times), nil
}

// runTimed is the untraced run: set up, time the op sequence, report
// the end-to-end metrics.
func runTimed(w *workload, seed uint64, seconds int, runDir string, out io.Writer) (*result, error) {
	r, setupS, err := setUp(w, seed, runDir, false, setupReps)
	if err != nil {
		return nil, err
	}
	defer r.close()
	passes := w.timedPasses(seconds, len(r.refs))
	steal0, total0, stealOK := hostSteal()
	// The latency record is allocated before timing, so that its growth
	// adds nothing to the timed phase's heap.
	t := tally{lat: make([]float64, 0, passes*len(r.refs))}
	start := time.Now()
	for p := range passes {
		if overTime(seconds, time.Since(start), t.ops) {
			fmt.Fprintf(out, "  timed phase cut after %d of %d passes: it ran past %g x --seconds\n", p, passes, capFactor)
			break
		}
		if err := r.pass(streamTimed, uint64(p), w.path, w.outcome, &t); err != nil {
			return nil, err
		}
	}
	steal1, total1, _ := hostSteal()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	p50, _, _ := blockPercentile(t.lat, 50)
	p99, latBlocks, beyond := blockPercentile(t.lat, 99)
	if !reportable(beyond) {
		return nil, fmt.Errorf("p99 of %d samples in %d blocks has %d beyond it in a block, want at least %d",
			len(t.lat), latBlocks, beyond, minBeyond)
	}
	sorted := append([]float64(nil), t.lat...)
	sort.Float64s(sorted)
	wholeP50, _ := percentile(sorted, 50)
	wholeP99, _ := percentile(sorted, 99)
	ops := float64(t.ops)
	tot := t.total()
	var rate, cpu []float64
	for _, b := range t.blocks(timedBlocks, len(r.refs)) {
		rate = append(rate, float64(b.ops)/b.wall.Seconds())
		cpu = append(cpu, float64(b.cpu)/float64(time.Millisecond)/float64(b.ops))
	}
	m := map[string]metric{
		"setup_s":         {setupS, "s"},
		"ops_per_s":       {median(rate), "1/s"},
		"latency_p50_ms":  {p50, "ms"},
		"latency_p99_ms":  {p99, "ms"},
		"cpu_ms_per_op":   {median(cpu), "ms"},
		"alloc_kb_per_op": {float64(tot.alloc) / 1024 / ops, "KiB"},
		"peak_rss_mb":     {rss, "MiB"},
	}
	fmt.Fprintf(out, "workload %s seed %d: %d ops in %d passes of %d grammars, %d failed\n",
		w.name, seed, t.ops, len(t.passes), len(r.refs), t.failed)
	printMetrics(out, m, map[string]string{
		"latency_p99_ms": fmt.Sprintf("(%d samples in %d blocks, at least %d beyond in each)", len(t.lat), latBlocks, beyond),
	})
	fmt.Fprintf(out, "  %-34s %14.6f %s\n", "failed_ratio", float64(t.failed)/ops, "ratio")
	fmt.Fprintf(out, "  whole timed phase: %.1f ops/s, %.3f ms CPU per op, p50 %.4f ms, p99 %.4f ms (the metrics above are medians of %d blocks of passes and %d latency blocks)\n",
		ops/tot.wall.Seconds(), float64(tot.cpu)/float64(time.Millisecond)/ops, wholeP50, wholeP99, timedBlocks, latBlocks)
	if stealOK && total1 > total0 {
		// Contention from other tenants of the host shows here; it
		// slows every timing metric of the run.
		fmt.Fprintf(out, "  host CPU stolen by the hypervisor during the timed phase: %.1f%%\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	if err := r.health(); err != nil {
		fmt.Fprintln(out, "  health:", err)
		t.failed = max(t.failed, 1)
	}
	if t.firstErr != nil {
		fmt.Fprintln(out, "  first failure:", t.firstErr)
	}
	return &result{Correct: t.failed == 0, Attempted: t.ops, Failed: t.failed, Metrics: m}, nil
}

// health checks what a response cannot show: the servers logged no
// diagnostics (a peer degrade, a store error).
func (r *rig) health() error {
	r.logMu.Lock()
	defer r.logMu.Unlock()
	if r.logs > 0 {
		return fmt.Errorf("%d server diagnostics, last: %s", r.logs, r.lastLog)
	}
	return nil
}

func printMetrics(out io.Writer, m map[string]metric, notes map[string]string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.6f %-6s %s\n", n, m[n].Value, m[n].Unit, notes[n])
	}
}

// runAll runs every workload in its own child process (so each reports
// its own peak RSS) and prints one combined result, its metrics keyed
// <workload>/<metric>.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "lalrdbench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append(append([]string{}, args...), "--workload", w.name)...)
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		err := cmd.Run()
		var res result
		if jerr := json.Unmarshal(lastLine(buf.Bytes()), &res); jerr != nil {
			var ee *exec.ExitError
			if err != nil && !errors.As(err, &ee) {
				fmt.Fprintln(stderr, "lalrdbench:", err)
			}
			all.Correct = false
			code = 1
			continue
		}
		if err != nil {
			code = 1
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for n, m := range res.Metrics {
			all.Metrics[w.name+"/"+n] = m
		}
	}
	line, _ := json.Marshal(all)
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// runTraced is the traced run: one set-up, an untraced phase for the
// overhead baseline and the GC share, then the traced phase.
func runTraced(w *workload, seed uint64, seconds int, runDir string, out io.Writer) (*result, error) {
	r, _, err := setUp(w, seed, runDir, true, 1)
	if err != nil {
		return nil, err
	}
	defer r.close()
	passes := max(w.timedPasses(seconds, len(r.refs))/4, 4)
	var base, traced tally
	for p := range passes {
		if err := r.pass(streamBaseline, uint64(p), w.path, w.outcome, &base); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	for p := range passes {
		if err := r.pass(streamTraced, uint64(p), w.path, w.outcome, &traced); err != nil {
			return nil, err
		}
	}
	m := r.probe.metrics(&base, &traced)
	fmt.Fprintf(out, "workload %s seed %d (traced): %d untraced + %d traced ops, %d failed\n",
		w.name, seed, base.ops, traced.ops, base.failed+traced.failed)
	printMetrics(out, m, nil)
	if r.probe.overLimit > 0 {
		fmt.Fprintf(out, "  %d of %d ops: named layers sum past the request time\n", r.probe.overLimit, r.probe.ops)
	}
	failed := base.failed + traced.failed
	if err := r.health(); err != nil {
		fmt.Fprintln(out, "  health:", err)
		failed = max(failed, 1)
	}
	for _, t := range []*tally{&base, &traced} {
		if t.firstErr != nil {
			fmt.Fprintln(out, "  first failure:", t.firstErr)
		}
	}
	return &result{Correct: failed == 0, Attempted: base.ops + traced.ops, Failed: failed, Metrics: m}, nil
}
