package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// sample is a point reading of the process counters a timed window
// spans.
type sample struct {
	wall  time.Time
	cpu   time.Duration // user+sys, getrusage(RUSAGE_SELF)
	alloc uint64        // cumulative heap bytes allocated
	gcCPU float64       // cumulative GC CPU seconds (runtime/metrics estimate)
}

// window is the difference of two samples.
type window struct {
	wall, cpu time.Duration
	alloc     uint64
	gcCPU     float64
}

func takeSample() sample {
	ms := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(ms)
	return sample{wall: time.Now(), cpu: cpuTime(), alloc: totalAlloc(), gcCPU: ms[0].Value.Float64()}
}

func (s sample) sub(o sample) window {
	return window{wall: s.wall.Sub(o.wall), cpu: s.cpu - o.cpu, alloc: s.alloc - o.alloc, gcCPU: s.gcCPU - o.gcCPU}
}

// total sums the tally's windows.
func (t *tally) total() window {
	return sumWindows(t.passes)
}

func sumWindows(ws []window) window {
	var tot window
	for _, w := range ws {
		tot.wall += w.wall
		tot.cpu += w.cpu
		tot.alloc += w.alloc
		tot.gcCPU += w.gcCPU
	}
	return tot
}

// timedBlocks is how many consecutive blocks of passes the timed phase
// is cut into for ops_per_s and cpu_ms_per_op: each block is long
// enough to hold several GC cycles, and the median block is immune to
// a burst of host contention in a few others.
const timedBlocks = 20

// block is a run of consecutive passes.
type block struct {
	window
	ops int
}

// blocks cuts the passes into n near-equal runs of consecutive passes
// (fewer when there are fewer passes).
func (t *tally) blocks(n, opsPerPass int) []block {
	n = min(n, len(t.passes))
	out := make([]block, n)
	for b := range out {
		lo, hi := b*len(t.passes)/n, (b+1)*len(t.passes)/n
		out[b] = block{window: sumWindows(t.passes[lo:hi]), ops: (hi - lo) * opsPerPass}
	}
	return out
}

// totalAlloc reads the cumulative heap allocation exactly.  It stops
// the world briefly (runtime/metrics would not, but counts whole spans
// when a P takes them, which is too coarse for one call).
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) == 3 && string(f[0]) == "VmHWM:" && string(f[2]) == "kB" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostSteal reads the machine-wide CPU ticks and the share of them the
// hypervisor stole (/proc/stat); it reports false where there is none.
func hostSteal() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(string(v), 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}
