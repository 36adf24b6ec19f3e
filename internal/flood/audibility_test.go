package flood

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// bruteCSRange recomputes the carrier-sense range from the graph's link
// list, independently of carrierSenseRange's CSR walk.
func bruteCSRange(g *topology.Graph, csFactor float64) float64 {
	maxLink := 0.0
	for _, e := range g.Links() {
		maxLink = math.Max(maxLink, g.Pos[e.U].Dist(g.Pos[e.V]))
	}
	return csFactor * maxLink
}

// TestAudibilityMatchesBruteForce checks the predicate on every ordered pair
// of the GreenOrbs topology against the plain distance definition.
func TestAudibilityMatchesBruteForce(t *testing.T) {
	g := topology.GreenOrbs(1)
	n := g.N()
	for _, f := range []float64{1.0, 1.2, 2.0} {
		a := newAudibility(g, f)
		csRange := bruteCSRange(g, f)
		if a.csRange != csRange {
			t.Fatalf("factor %v: range %v, want %v", f, a.csRange, csRange)
		}
		audible := 0
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want := u != v && g.Pos[u].Dist(g.Pos[v]) <= csRange
				if got := a.has(u, v); got != want {
					t.Fatalf("factor %v: has(%d, %d) = %v, want %v", f, u, v, got, want)
				}
				if want {
					audible++
				}
			}
		}
		// Every link lies within the range, so audibility is a superset of
		// the 2·links directed adjacency.
		if audible < 2*g.NumLinks() {
			t.Fatalf("factor %v: %d audible ordered pairs < %d directed links", f, audible, 2*g.NumLinks())
		}
	}
}

// TestAudibilityPositionFree checks that without positions audibility is
// exactly the communication adjacency, at any factor.
func TestAudibilityPositionFree(t *testing.T) {
	g := topology.GreenOrbs(1).Clone()
	g.Pos = nil
	n := g.N()
	for _, f := range []float64{1.0, 2.0} {
		a := newAudibility(g, f)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if got, want := a.has(u, v), g.HasLink(u, v); got != want {
					t.Fatalf("factor %v: has(%d, %d) = %v, want adjacency %v", f, u, v, got, want)
				}
			}
		}
	}
}

// TestAudibilityEdgeCases pins the boundary of the predicate on hand-placed
// nodes: the only link (0–2) is 10 long, so at factor 1 the range is
// exactly 10.
func TestAudibilityEdgeCases(t *testing.T) {
	g := topology.New(6)
	g.Pos = []topology.Point{
		{X: 0, Y: 0},
		{X: 0, Y: 0},                       // coincident with 0
		{X: 10, Y: 0},                      // exactly at range on an axis
		{X: 6, Y: 8},                       // exactly at range off-axis
		{X: math.Nextafter(10, 11), Y: 0},  // one ulp beyond range
		{X: 0, Y: -math.Nextafter(10, 11)}, // one ulp beyond, other axis
	}
	g.AddLink(0, 2, 0.9)
	g.SortNeighbors()
	a := newAudibility(g, 1.0)
	if a.csRange != 10 {
		t.Fatalf("range %v, want 10", a.csRange)
	}
	cases := []struct {
		u, v int
		want bool
	}{
		{0, 1, true},  // coincident
		{1, 0, true},  // symmetric
		{0, 2, true},  // at range
		{1, 3, true},  // at range, off-axis, band path
		{0, 4, false}, // one ulp beyond
		{5, 0, false}, // one ulp beyond, reversed
		{2, 4, true},  // one ulp apart
	}
	for _, c := range cases {
		if got := a.has(c.u, c.v); got != c.want {
			t.Errorf("has(%d, %d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
	for u := 0; u < g.N(); u++ {
		if a.has(u, u) {
			t.Errorf("has(%d, %d) = true: a node never hears itself", u, u)
		}
	}
	// A linkless positioned graph has range 0: only coincident nodes hear
	// each other.
	lone := topology.New(3)
	lone.Pos = []topology.Point{{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 2}}
	b := newAudibility(lone, 1.2)
	if !b.has(0, 1) || b.has(0, 2) || b.has(0, 0) {
		t.Errorf("linkless graph: has(0,1)=%v has(0,2)=%v has(0,0)=%v, want true false false",
			b.has(0, 1), b.has(0, 2), b.has(0, 0))
	}
}

// TestAudibilityCollinear: three collinear nodes 30m apart with a max link
// of 30m. At factor 1.0 the ends (60m apart) are hidden from each other, at
// 2.5 audible; without positions only the links are audible.
func TestAudibilityCollinear(t *testing.T) {
	g := topology.New(3)
	g.Pos = []topology.Point{{X: 0}, {X: 30}, {X: 60}}
	g.AddLink(0, 1, 0.9)
	g.AddLink(1, 2, 0.9)
	g.SortNeighbors()
	tight := newAudibility(g, 1.0)
	if tight.has(0, 2) {
		t.Fatal("factor 1.0: ends should be hidden")
	}
	if !tight.has(0, 1) || !tight.has(1, 2) {
		t.Fatal("factor 1.0: adjacent nodes must be audible")
	}
	if wide := newAudibility(g, 2.5); !wide.has(0, 2) {
		t.Fatal("factor 2.5: ends should be audible")
	}
	posFree := g.Clone()
	posFree.Pos = nil
	if b := newAudibility(posFree, 2.5); !b.has(0, 1) || b.has(0, 2) {
		t.Fatal("position-free fallback must be the adjacency")
	}
}

// TestAudibilityConcurrentReaders drives one predicate from several
// goroutines at once, as the sharded planners do, and checks each reader
// sees the serial answers. Run under -race.
func TestAudibilityConcurrentReaders(t *testing.T) {
	g := topology.GreenOrbs(1)
	n := g.N()
	a := newAudibility(g, 1.2)
	want := make([]bool, n*n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			want[u*n+v] = a.has(u, v)
		}
	}
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for u := k; u < n; u += 4 {
				for v := 0; v < n; v++ {
					if a.has(u, v) != want[u*n+v] {
						t.Errorf("reader %d: has(%d, %d) disagrees with the serial answer", k, u, v)
						return
					}
				}
			}
		}(k)
	}
	wg.Wait()
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one
// call of f allocates, after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestAudibilityResetAllocsConstant guards against an O(n)-sized
// audibility structure coming back: DBAO.Reset and Naive.Reset allocate the
// same constant number of objects on a 2k- and a 10k-node topology, and no
// more bytes than the one n-entry assigned array (2n leaves room for
// size-class rounding). Each measured call alternates between two graphs
// so a per-graph memo could not hide a rebuild.
func TestAudibilityResetAllocsConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 2k- and 10k-node topologies")
	}
	worlds := func(nodes int) [2]*sim.World {
		g, err := topology.GenerateGreenOrbs(topology.ScaledGreenOrbsConfig(nodes), 1)
		if err != nil {
			t.Fatal(err)
		}
		return [2]*sim.World{probeWorld(t, g), probeWorld(t, g.Clone())}
	}
	small, large := worlds(2000), worlds(10000)
	for _, p := range []sim.Protocol{NewDBAO(), NewNaive()} {
		allocs := func(ws [2]*sim.World) float64 {
			i := 0
			return testing.AllocsPerRun(10, func() {
				p.Reset(ws[i%2])
				i++
			})
		}
		s, l := allocs(small), allocs(large)
		if s != l || s > 2 {
			t.Errorf("%s.Reset: %v allocs/op at 2k nodes, %v at 10k; want the same constant ≤ 2", p.Name(), s, l)
		}
		for _, ws := range [][2]*sim.World{small, large} {
			i := 0
			n := ws[0].Graph.N()
			b := bytesPerRun(10, func() {
				p.Reset(ws[i%2])
				i++
			})
			if b > uint64(2*n) {
				t.Errorf("%s.Reset on %d nodes: %d bytes/op, want ≤ %d", p.Name(), n, b, 2*n)
			}
		}
	}
}
