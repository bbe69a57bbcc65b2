package cluster

import (
	"fmt"
	"testing"
)

func TestRingDeterministicAndOrderIndependent(t *testing.T) {
	a := NewRing([]string{"http://a", "http://b", "http://c"}, 64)
	b := NewRing([]string{"http://c", "http://a", "http://b"}, 64)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("fp-%d", i)
		if got, want := a.Owner(key), b.Owner(key); got != want {
			t.Fatalf("key %s: owner depends on peer-list order (%s vs %s)", key, got, want)
		}
	}
}

// TestRingOwnerIsFirstClockwise checks Owner against a linear scan:
// the owner is the node of the virtual point at the least clockwise
// distance from the key's hash, wrapping past the top of the circle.
func TestRingOwnerIsFirstClockwise(t *testing.T) {
	r := NewRing([]string{"http://a", "http://b", "http://c"}, 8)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("fp-%d", i)
		h := ringHash(key)
		best := r.points[0]
		for _, p := range r.points[1:] {
			if p.hash-h < best.hash-h { // unsigned: distance mod 2^64
				best = p
			}
		}
		if got, want := r.Owner(key), r.nodes[best.node]; got != want {
			t.Fatalf("key %s: Owner = %s, want %s", key, got, want)
		}
	}
}

func TestRingBalance(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c"}
	r := NewRing(nodes, 0) // default replicas
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("%064x", i))]++
	}
	for _, node := range nodes {
		share := float64(counts[node]) / n
		if share < 0.15 || share > 0.55 {
			t.Fatalf("node %s owns %.0f%% of keys — ring badly unbalanced: %v", node, share*100, counts)
		}
	}
}

func TestRingMinimalMovementOnMembershipChange(t *testing.T) {
	before := NewRing([]string{"http://a", "http://b", "http://c"}, 64)
	after := NewRing([]string{"http://a", "http://b", "http://c", "http://d"}, 64)
	const n = 2000
	moved, movedWrong := 0, 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%064x", i)
		ob, oa := before.Owner(key), after.Owner(key)
		if ob != oa {
			moved++
			if oa != "http://d" {
				movedWrong++
			}
		}
	}
	if movedWrong != 0 {
		t.Fatalf("%d keys moved between surviving nodes on member add; consistent hashing should move keys only to the new node", movedWrong)
	}
	// The new node should take roughly 1/4 of the space; far more or
	// almost none means the ring is not consistent.
	if moved < n/10 || moved > n/2 {
		t.Fatalf("adding one of four nodes moved %d/%d keys, want roughly a quarter", moved, n)
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	var empty = NewRing(nil, 8)
	if got := empty.Owner("k"); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
	one := NewRing([]string{"http://only"}, 8)
	if got := one.Owner("k"); got != "http://only" {
		t.Fatalf("single ring owner = %q", got)
	}
}
