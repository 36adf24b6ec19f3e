package topology

import (
	"sort"

	"ldcflood/internal/stats"
)

// Components returns the connected components of the graph as sorted node
// lists, ordered by their smallest member.
func (g *Graph) Components() [][]int {
	visited := make([]bool, g.N())
	var comps [][]int
	for start := 0; start < g.N(); start++ {
		if visited[start] {
			continue
		}
		var comp []int
		queue := []int{start}
		visited[start] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, l := range g.adj[u] {
				if !visited[l.To] {
					visited[l.To] = true
					queue = append(queue, l.To)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether every node is reachable from node 0.
func (g *Graph) IsConnected() bool {
	return len(g.Components()) == 1
}

// HopDistances returns the BFS hop count from src to every node; unreachable
// nodes get -1.
func (g *Graph) HopDistances(src int) []int {
	g.check(src)
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, l := range g.adj[u] {
			if dist[l.To] == -1 {
				dist[l.To] = dist[u] + 1
				queue = append(queue, l.To)
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum finite hop distance from src, ignoring
// unreachable nodes. For an isolated node it returns 0.
func (g *Graph) Eccentricity(src int) int {
	ecc := 0
	for _, d := range g.HopDistances(src) {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the maximum eccentricity over all nodes (the hop
// diameter). Unreachable pairs are ignored; a graph with no links has
// diameter 0. This is O(N·E) — fine for the network sizes studied here.
func (g *Graph) Diameter() int {
	diam := 0
	for u := 0; u < g.N(); u++ {
		if e := g.Eccentricity(u); e > diam {
			diam = e
		}
	}
	return diam
}

// Stats aggregates the structural features used to calibrate the synthetic
// GreenOrbs trace against the published deployment.
type Stats struct {
	Nodes        int
	Links        int
	MeanDegree   float64
	MinDegree    int
	MaxDegree    int
	Connected    bool
	Diameter     int
	PRR          stats.Summary // distribution over all undirected links
	SourceEcc    int           // hop eccentricity of node 0 (flooding depth)
	Isolated     int           // nodes with degree 0
	Transitional float64       // fraction of links with PRR in [0.1, 0.9)
}

// Analyze computes Stats for the graph.
func (g *Graph) Analyze() Stats {
	s := Stats{
		Nodes:     g.N(),
		Links:     g.NumLinks(),
		Connected: g.IsConnected(),
		MinDegree: g.N(),
	}
	degSum := 0
	for u := 0; u < g.N(); u++ {
		d := g.Degree(u)
		degSum += d
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d == 0 {
			s.Isolated++
		}
	}
	s.MeanDegree = float64(degSum) / float64(g.N())
	prrs := make([]float64, 0, s.Links)
	trans := 0
	for _, e := range g.Links() {
		prrs = append(prrs, e.PRR)
		if e.PRR >= 0.1 && e.PRR < 0.9 {
			trans++
		}
	}
	s.PRR = stats.Summarize(prrs)
	if s.Links > 0 {
		s.Transitional = float64(trans) / float64(s.Links)
	}
	s.Diameter = g.Diameter()
	s.SourceEcc = g.Eccentricity(0)
	return s
}

// DegreeHistogram returns counts[d] = number of nodes with degree d.
func (g *Graph) DegreeHistogram() []int {
	maxDeg := 0
	for u := 0; u < g.N(); u++ {
		if d := g.Degree(u); d > maxDeg {
			maxDeg = d
		}
	}
	counts := make([]int, maxDeg+1)
	for u := 0; u < g.N(); u++ {
		counts[g.Degree(u)]++
	}
	return counts
}

// BestNeighbor returns u's neighbor with the highest PRR (lowest id wins
// ties) and that PRR. ok is false if u has no neighbors. The OPT oracle
// protocol receives from this neighbor.
func (g *Graph) BestNeighbor(u int) (v int, prr float64, ok bool) {
	g.check(u)
	v = -1
	for _, l := range g.adj[u] {
		if l.PRR > prr || (l.PRR == prr && ok && l.To < v) {
			v, prr, ok = l.To, l.PRR, true
		}
	}
	return v, prr, ok
}

// AdjacencyBitset returns a bit matrix b where b[u] has bit v set iff u and
// v are linked; b[u][v/64]>>(v%64)&1. Its user is the engine's compact-time
// plan (internal/sim/compact.go), which snapshots it on small graphs for
// the awake-pair offsets and the per-delivery relevance sweeps.
func (g *Graph) AdjacencyBitset() [][]uint64 {
	words := (g.N() + 63) / 64
	b := make([][]uint64, g.N())
	backing := make([]uint64, g.N()*words)
	for u := range b {
		b[u] = backing[u*words : (u+1)*words]
		for _, l := range g.adj[u] {
			b[u][l.To/64] |= 1 << (uint(l.To) % 64)
		}
	}
	return b
}

// MeanLinkPRR returns the mean PRR over all undirected links, or 0 for a
// graph with no links. The link-loss analysis (Section IV-B) uses this to
// derive the network-wide expected transmission count k = 1/PRR.
func (g *Graph) MeanLinkPRR() float64 {
	links := g.Links()
	if len(links) == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range links {
		sum += e.PRR
	}
	return sum / float64(len(links))
}
