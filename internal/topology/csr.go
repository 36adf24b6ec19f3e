package topology

import (
	"fmt"
	"math"
	"sync"
)

// CSR is a compressed-sparse-row view of a Graph's adjacency: two flat
// arrays replace the per-node slice-of-struct lists on simulation hot
// paths, halving per-edge memory and making whole-graph iteration a single
// linear scan. Row u occupies Targets[Offsets[u]:Offsets[u+1]] (neighbor
// ids) and PRRs over the same index range (the matching link PRRs), in the
// graph's adjacency order — after Graph.SortNeighbors, ascending by
// neighbor id, which Sorted then reports and PRROf exploits with a binary
// search.
//
// PRRs are float64, not a narrower type: engine delivery decisions draw
// against the exact Graph.PRR values, and quantizing here would break the
// byte-identity guarantee between CSR-backed and slice-backed runs.
//
// A CSR is immutable after construction and safe for concurrent readers;
// one instance is shared by every simulation over the same Graph.
type CSR struct {
	// Offsets has length N()+1; row u is the index range
	// [Offsets[u], Offsets[u+1]).
	Offsets []int32
	// Targets holds the neighbor ids of every row back to back (one entry
	// per directed edge, 2× the undirected link count).
	Targets []int32
	// PRRs holds the link PRR parallel to Targets.
	PRRs []float64
	// Sorted reports that every row is ascending in neighbor id, enabling
	// binary-search lookups. Graphs built by this package's generators and
	// decoders are always sorted.
	Sorted bool
}

// maxCSREdges caps the directed-edge count at what int32 offsets address.
const maxCSREdges = math.MaxInt32

// NewCSR builds the CSR view of g. It is exported for callers that manage
// their own caching; most should use Graph.CSR, which builds once per
// graph. It panics if the graph has more than 2^31-1 directed edges
// (an exabyte-class topology far outside this simulator's domain).
func NewCSR(g *Graph) *CSR {
	n := g.N()
	total := 0
	for u := 0; u < n; u++ {
		total += len(g.adj[u])
	}
	if total > maxCSREdges {
		panic(fmt.Sprintf("topology: %d directed edges exceed CSR's int32 offsets", total))
	}
	c := &CSR{
		Offsets: make([]int32, n+1),
		Targets: make([]int32, total),
		PRRs:    make([]float64, total),
		Sorted:  true,
	}
	pos := int32(0)
	for u := 0; u < n; u++ {
		c.Offsets[u] = pos
		prev := int32(-1)
		for _, l := range g.adj[u] {
			to := int32(l.To)
			c.Targets[pos] = to
			c.PRRs[pos] = l.PRR
			pos++
			if to <= prev {
				c.Sorted = false
			}
			prev = to
		}
	}
	c.Offsets[n] = pos
	return c
}

// N returns the node count.
func (c *CSR) N() int { return len(c.Offsets) - 1 }

// Degree returns the number of neighbors of u.
func (c *CSR) Degree(u int) int { return int(c.Offsets[u+1] - c.Offsets[u]) }

// Row returns u's neighbor ids and matching PRRs, in adjacency order. The
// slices alias the CSR's backing arrays and must not be modified.
func (c *CSR) Row(u int) ([]int32, []float64) {
	lo, hi := c.Offsets[u], c.Offsets[u+1]
	return c.Targets[lo:hi], c.PRRs[lo:hi]
}

// find returns the index of v in row u, or -1. Sorted rows binary-search;
// unsorted rows (hand-built graphs that skipped SortNeighbors) scan.
func (c *CSR) find(u, v int) int32 {
	lo, hi := c.Offsets[u], c.Offsets[u+1]
	if c.Sorted {
		for lo < hi {
			mid := (lo + hi) / 2
			if t := c.Targets[mid]; t < int32(v) {
				lo = mid + 1
			} else if t > int32(v) {
				hi = mid
			} else {
				return mid
			}
		}
		return -1
	}
	for i := lo; i < hi; i++ {
		if c.Targets[i] == int32(v) {
			return i
		}
	}
	return -1
}

// PRROf returns the PRR of link (u, v), or 0 when unlinked — Graph.PRR
// semantics over the flat layout.
func (c *CSR) PRROf(u, v int) float64 {
	if i := c.find(u, v); i >= 0 {
		return c.PRRs[i]
	}
	return 0
}

// HasLink reports whether u and v are linked.
func (c *CSR) HasLink(u, v int) bool { return c.find(u, v) >= 0 }

// csrMu guards every Graph's cached CSR and dense PRR matrix. A single
// package-level mutex (rather than a per-graph one) keeps Graph free of
// lock state, which its JSON decoder copies by value; contention is
// irrelevant because the critical section is a pointer check except for
// the one build per graph.
var csrMu sync.Mutex

// CSR returns the graph's compressed-sparse-row adjacency view, building
// it on first call and caching it on the graph. Mutating the graph
// (AddLink, RemoveLink) invalidates the cache. Like the rest of Graph,
// the cache follows the package convention that graphs are immutable once
// shared: concurrent CSR calls are safe against each other, but not
// against a concurrent mutation.
func (g *Graph) CSR() *CSR {
	csrMu.Lock()
	defer csrMu.Unlock()
	if g.csr == nil {
		g.csr = NewCSR(g)
	}
	return g.csr
}

// DensePRR returns the graph's link PRRs as a dense row-major n×n matrix:
// entry u*N()+v is Graph.PRR(u, v), 0 for unlinked pairs. It is built on
// first call and cached like CSR (same lock, same invalidation), so every
// simulation over one graph shares a single read-only copy. The matrix
// costs 8·n² bytes; callers decide whether a graph is small enough.
func (g *Graph) DensePRR() []float64 {
	csrMu.Lock()
	defer csrMu.Unlock()
	if g.dense == nil {
		n := g.N()
		m := make([]float64, n*n)
		for u, row := range g.adj {
			for _, l := range row {
				m[u*n+l.To] = l.PRR
			}
		}
		g.dense = m
	}
	return g.dense
}
