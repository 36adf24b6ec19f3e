// Package topology provides the network-topology substrate for the flooding
// study: an undirected graph with per-link packet-reception ratios (PRR),
// spatial generators (including a synthetic stand-in for the 298-node
// GreenOrbs forest trace used by the paper), a radio-propagation model that
// maps distance to PRR, structural analysis helpers, and serialization.
package topology

import (
	"fmt"
	"math"
	"sort"
)

// Point is a 2-D position in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Link is an outgoing adjacency entry: the neighbor and the packet
// reception ratio of the (undirected) link in (0, 1].
type Link struct {
	To  int
	PRR float64
}

// Graph is an undirected network topology over nodes 0..N-1 with per-link
// PRR. Node 0 is, by the paper's convention, the flooding source. Positions
// are optional (nil Pos means abstract graph).
type Graph struct {
	Name string
	Pos  []Point
	adj  [][]Link

	// csr caches the flat CSR adjacency view (see CSR) and dense the n×n
	// PRR matrix (see DensePRR); each is nil until first requested and
	// reset by every mutation. Guarded by the package-level csrMu, never
	// a per-graph lock, so Graph stays copyable by value.
	csr   *CSR
	dense []float64
}

// New creates an empty graph with n nodes and no links. It panics if n <= 0.
func New(n int) *Graph {
	if n <= 0 {
		panic("topology: graph needs n > 0")
	}
	return &Graph{adj: make([][]Link, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// AddLink inserts an undirected link (u, v) with the given PRR, replacing
// any existing link between the pair. It panics for out-of-range endpoints,
// self-loops, or PRR outside (0, 1].
func (g *Graph) AddLink(u, v int, prr float64) {
	g.check(u)
	g.check(v)
	if u == v {
		panic("topology: self-loop")
	}
	if prr <= 0 || prr > 1 || math.IsNaN(prr) {
		panic(fmt.Sprintf("topology: PRR %v outside (0,1]", prr))
	}
	g.setDirected(u, v, prr)
	g.setDirected(v, u, prr)
	g.invalidate()
}

func (g *Graph) setDirected(u, v int, prr float64) {
	for i := range g.adj[u] {
		if g.adj[u][i].To == v {
			g.adj[u][i].PRR = prr
			return
		}
	}
	g.adj[u] = append(g.adj[u], Link{To: v, PRR: prr})
}

// RemoveLink deletes the undirected link (u, v) if present and reports
// whether a link was removed.
func (g *Graph) RemoveLink(u, v int) bool {
	g.check(u)
	g.check(v)
	removed := g.removeDirected(u, v)
	if removed {
		g.removeDirected(v, u)
		g.invalidate()
	}
	return removed
}

func (g *Graph) removeDirected(u, v int) bool {
	for i := range g.adj[u] {
		if g.adj[u][i].To == v {
			g.adj[u] = append(g.adj[u][:i], g.adj[u][i+1:]...)
			return true
		}
	}
	return false
}

// HasLink reports whether nodes u and v are linked.
func (g *Graph) HasLink(u, v int) bool {
	g.check(u)
	g.check(v)
	for _, l := range g.adj[u] {
		if l.To == v {
			return true
		}
	}
	return false
}

// PRR returns the packet reception ratio of link (u, v), or 0 if the link
// does not exist.
func (g *Graph) PRR(u, v int) float64 {
	g.check(u)
	g.check(v)
	for _, l := range g.adj[u] {
		if l.To == v {
			return l.PRR
		}
	}
	return 0
}

// Neighbors returns u's adjacency list. The returned slice is owned by the
// graph and must not be modified.
func (g *Graph) Neighbors(u int) []Link {
	g.check(u)
	return g.adj[u]
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	g.check(u)
	return len(g.adj[u])
}

// NumLinks returns the number of undirected links.
func (g *Graph) NumLinks() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// SortNeighbors orders every adjacency list by neighbor id. Generators call
// this so iteration order — and therefore every downstream simulation — is
// deterministic regardless of link insertion order.
func (g *Graph) SortNeighbors() {
	for u := range g.adj {
		sort.Slice(g.adj[u], func(i, j int) bool { return g.adj[u][i].To < g.adj[u][j].To })
	}
	g.invalidate()
}

// invalidate drops the cached CSR and dense-PRR views after a mutation.
func (g *Graph) invalidate() {
	g.csr = nil
	g.dense = nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{Name: g.Name, adj: make([][]Link, len(g.adj))}
	if g.Pos != nil {
		c.Pos = append([]Point(nil), g.Pos...)
	}
	for u := range g.adj {
		c.adj[u] = append([]Link(nil), g.adj[u]...)
	}
	return c
}

// Links returns every undirected link exactly once (u < v), ordered.
func (g *Graph) Links() []Edge {
	var out []Edge
	for u := range g.adj {
		for _, l := range g.adj[u] {
			if u < l.To {
				out = append(out, Edge{U: u, V: l.To, PRR: l.PRR})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Edge is an undirected link record used for iteration and serialization.
type Edge struct {
	U, V int
	PRR  float64
}

// Validate checks internal consistency: symmetric adjacency, matching PRRs,
// in-range endpoints, no self-loops, PRRs in (0,1]. It returns the first
// problem found, or nil.
func (g *Graph) Validate() error {
	if len(g.adj) == 0 {
		return fmt.Errorf("topology: empty graph")
	}
	if g.Pos != nil && len(g.Pos) != len(g.adj) {
		return fmt.Errorf("topology: %d positions for %d nodes", len(g.Pos), len(g.adj))
	}
	// One CSR build turns the symmetry back-check into binary searches,
	// O(m log d) overall on sorted graphs instead of the quadratic
	// per-link scan — the difference between milliseconds and minutes on
	// the 50k-node maximum-degree star in the CSR fuzz corpus.
	c := g.CSR()
	for u := range g.adj {
		row := g.adj[u]
		strictAsc := true
		for i := 1; i < len(row); i++ {
			if row[i].To <= row[i-1].To {
				strictAsc = false
				break
			}
		}
		// Strictly ascending rows cannot hold duplicates; only unsorted
		// rows pay for a membership map.
		var seen map[int]bool
		if !strictAsc {
			seen = make(map[int]bool, len(row))
		}
		for _, l := range row {
			if l.To < 0 || l.To >= len(g.adj) {
				return fmt.Errorf("topology: node %d links to out-of-range %d", u, l.To)
			}
			if l.To == u {
				return fmt.Errorf("topology: self-loop at node %d", u)
			}
			if seen != nil {
				if seen[l.To] {
					return fmt.Errorf("topology: duplicate link %d-%d", u, l.To)
				}
				seen[l.To] = true
			}
			if l.PRR <= 0 || l.PRR > 1 || math.IsNaN(l.PRR) {
				return fmt.Errorf("topology: link %d-%d has PRR %v", u, l.To, l.PRR)
			}
			if back := c.PRROf(l.To, u); back != l.PRR {
				return fmt.Errorf("topology: asymmetric link %d-%d (%v vs %v)", u, l.To, l.PRR, back)
			}
		}
	}
	return nil
}

func (g *Graph) check(u int) {
	if u < 0 || u >= len(g.adj) {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", u, len(g.adj)))
	}
}

// String summarizes the graph.
func (g *Graph) String() string {
	name := g.Name
	if name == "" {
		name = "graph"
	}
	return fmt.Sprintf("%s{n=%d links=%d}", name, g.N(), g.NumLinks())
}
