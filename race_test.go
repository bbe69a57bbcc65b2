//go:build race

package repro

// raceEnabled lifts TestAmbigWalkAllocBound's byte bound under the race
// detector, whose sync.Pool drops a share of Puts on purpose, so some
// walks grow their working set from empty.
const raceEnabled = true
