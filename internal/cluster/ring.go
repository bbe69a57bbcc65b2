// Package cluster is the peer layer of a lalrd fleet: N replicas, each
// owning a slice of the content-fingerprint key space via a
// consistent-hash ring, asking the owning sibling for frozen table
// bytes (internal/frozen FRZ1) before computing an analysis locally.
//
// The layer is built for partial failure, and it is advisory: a fetch
// is one exchange with the ring owner, bounded by a share of the
// request's remaining deadline and gated by that owner's circuit
// breaker (closed → open → half-open), and any answer other than a
// verified fill degrades to local computation, never to a
// client-visible error.  A cold local analysis costs less than one
// retry's backoff would, so a fetch makes no second attempt.  A fully
// partitioned fleet behaves exactly like N independent nodes
// (asserted by test).
//
// Faults are injectable deterministically with InjectFault, mirroring
// guard.InjectFault: any peer exchange can be dropped, delayed,
// corrupted or errored, so every breaker state transition is
// reachable from unit tests without a flaky network.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultRingReplicas is the virtual-node count per peer when
// Config.RingReplicas is zero: enough that a 3-node fleet's key-space
// shares stay within a few percent of even.
const DefaultRingReplicas = 64

// Ring is a consistent-hash ring over peer base URLs.  Each peer is
// placed at RingReplicas pseudo-random points on a 64-bit circle; a
// key's owner is the first peer clockwise from the key's hash.  Adding
// or removing one peer moves only the keys that peer owned — the
// property that makes a fleet restart cheap.  A Ring is immutable
// after New; membership changes build a new Ring.
type Ring struct {
	points []ringPoint
	nodes  []string
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// NewRing builds a ring over the given peers with the given number of
// virtual nodes each (<=0 means DefaultRingReplicas).  Peer order does
// not matter: placement depends only on the peer strings, so every
// fleet member configured with the same -peers list computes the same
// ownership, whatever order the flag listed them in.
func NewRing(peers []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultRingReplicas
	}
	nodes := append([]string(nil), peers...)
	sort.Strings(nodes)
	r := &Ring{nodes: nodes}
	r.points = make([]ringPoint, 0, len(nodes)*replicas)
	for ni, n := range nodes {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", n, v)), node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by node index so the ring
		// is still a deterministic function of the membership.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// ringHash is the ring's placement hash: FNV-64a fed through a
// splitmix64-style finalizer.  FNV alone is unusable here — inputs
// that differ only in a short suffix ("peer#0" … "peer#63") land in a
// tight band of the circle, giving one node giant contiguous arcs —
// so the finalizer scatters the bits.  It does not need to be
// cryptographic, only stable and well-spread.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Nodes returns the ring's members, sorted.
func (r *Ring) Nodes() []string { return r.nodes }

// Owner returns the peer owning key: the first one clockwise from the
// key's hash, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return r.nodes[r.points[i%len(r.points)].node]
}
