package flood

import "ldcflood/internal/topology"

// audibility answers "can u hear v's transmission" for the carrier-sense
// protocols (DBAO, Naive). With positions, two distinct nodes are audible
// iff they lie within csFactor × (longest link distance) of each other;
// without positions, audibility falls back to the communication adjacency.
// Both are predicates over data the graph already holds, so Reset builds
// nothing per node, and has() only reads, so it is safe for concurrent
// callers (the sharded planners call it from every worker).
type audibility struct {
	pos             []topology.Point // nil: fall back to csr adjacency
	csr             *topology.CSR
	lo, hi, csRange float64 // audiblePair's band and threshold
}

// newAudibility returns g's audibility predicate at csFactor. It costs one
// pass over g's links (the longest-link search) when g has positions.
func newAudibility(g *topology.Graph, csFactor float64) audibility {
	if g.Pos == nil {
		return audibility{csr: g.CSR()}
	}
	csRange := carrierSenseRange(g, csFactor)
	cs2 := csRange * csRange
	return audibility{pos: g.Pos, lo: cs2 * (1 - 1e-9), hi: cs2 * (1 + 1e-9), csRange: csRange}
}

// has reports whether u can hear v. A node never hears itself.
func (a *audibility) has(u, v int) bool {
	if a.pos == nil {
		return a.csr.HasLink(u, v)
	}
	return u != v && audiblePair(a.pos[u], a.pos[v], a.lo, a.hi, a.csRange)
}

// carrierSenseRange is the physical carrier-sense radius: csFactor times
// the longest usable link distance in the topology. It walks the CSR rows
// once, visiting each undirected link from its lower endpoint.
func carrierSenseRange(g *topology.Graph, csFactor float64) float64 {
	c := g.CSR()
	maxLink := 0.0
	for u := 0; u < c.N(); u++ {
		row, _ := c.Row(u)
		for _, v := range row {
			if int(v) > u {
				if d := g.Pos[u].Dist(g.Pos[v]); d > maxLink {
					maxLink = d
				}
			}
		}
	}
	return csFactor * maxLink
}

// audiblePair is the exact audibility predicate: squared distance against
// the threshold, with the correctly-rounded Dist comparison consulted only
// inside a narrow band around the threshold where dx²+dy² rounding could
// disagree.
func audiblePair(pu, pv topology.Point, lo, hi, csRange float64) bool {
	dx, dy := pu.X-pv.X, pu.Y-pv.Y
	d2 := dx*dx + dy*dy
	switch {
	case d2 <= lo:
		return true
	case d2 >= hi:
		return false
	default:
		return pu.Dist(pv) <= csRange
	}
}
