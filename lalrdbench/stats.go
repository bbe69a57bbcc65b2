package main

import (
	"sort"
)

// minBeyond is the least number of samples that must lie beyond a
// reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank pct-th percentile of sorted
// (ascending) and how many samples lie beyond it.  Integer rank
// arithmetic keeps 99% of 1000 at rank 990, not 991.
func percentile(sorted []float64, pct int) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	k := max((pct*n+99)/100, 1)
	return sorted[k-1], n - k
}

// reportable reports whether a percentile with this many samples
// beyond it may be reported.
func reportable(beyond int) bool { return beyond >= minBeyond }

// latBlockOps is the least number of ops in a latency block, so that a
// block's p99 has minBeyond samples beyond it; maxLatBlocks caps the
// number of blocks.
const (
	latBlockOps  = 1000
	maxLatBlocks = 20
)

// blockPercentile cuts lat, in op order, into consecutive near-equal
// blocks of at least latBlockOps ops (one block when there are fewer),
// at most maxLatBlocks of them.  It returns the median over the blocks
// of each block's pct-th percentile, the number of blocks, and the
// fewest samples beyond the percentile in any block.  A burst of host
// contention then moves the blocks it hits, not the reported value.
func blockPercentile(lat []float64, pct int) (v float64, blocks, beyond int) {
	n := max(min(len(lat)/latBlockOps, maxLatBlocks), 1)
	vs := make([]float64, n)
	beyond = len(lat)
	for b := range vs {
		blk := append([]float64(nil), lat[b*len(lat)/n:(b+1)*len(lat)/n]...)
		sort.Float64s(blk)
		var k int
		vs[b], k = percentile(blk, pct)
		beyond = min(beyond, k)
	}
	return median(vs), n, beyond
}

// median returns the median of xs (the mean of the middle two for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
