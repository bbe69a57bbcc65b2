package ambig

// One Machine, many walks at once: lint builds the walk tables once
// per grammar and walks its conflicts on several workers, each through
// a Walker of its own.  Every verdict must still be its golden line.
// Under the race detector (make race) this is the check that the
// shared tables, the lazily built state rank and the cex generator's
// caches are read and filled race-free.

import (
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/grammars"
)

func TestSharedMachineConcurrentWalks(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]bool{}
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		golden[line] = true
	}
	const workers = 4
	for _, e := range grammars.All() {
		a, dp, open := openConflicts(t, e.Name, e.Src)
		if len(open) == 0 {
			continue
		}
		m := NewMachine(a, dp.Sets())
		var wg sync.WaitGroup
		lines := make([][]string, workers)
		for k := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Every worker walks every conflict at every bound set,
				// starting at a different conflict.
				for _, bs := range goldenBounds {
					w := m.Walker(Config{Bounds: bs.b})
					for i := range open {
						c := open[(i+k)%len(open)]
						lines[k] = append(lines[k], goldenLine(a.G, e.Name, bs.name, w.Walk(c)))
					}
				}
			}()
		}
		wg.Wait()
		for k := range workers {
			for _, line := range lines[k] {
				if !golden[line] {
					t.Errorf("worker %d: verdict not in the golden: %s", k, line)
				}
			}
		}
	}
}
