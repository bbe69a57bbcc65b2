//go:build race

package server

// raceEnabled lifts TestPeerFillAllocBound's bound under the race
// detector, whose sync.Pool drops a share of Puts on purpose, so the
// owner's pooled read allocates a fresh buffer on some fills.
const raceEnabled = true
