package topology

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"ldcflood/internal/rngutil"
)

// withSpatialThreshold pins the brute-force/spatial-hash crossover for the
// duration of fn so both strategies can be forced on the same topology.
func withSpatialThreshold(threshold int, fn func()) {
	old := spatialHashMinNodes
	spatialHashMinNodes = threshold
	defer func() { spatialHashMinNodes = old }()
	fn()
}

// TestLinkByDistanceSpatialMatchesBrute pins the central claim of the
// spatial-hash path: it enumerates exactly the candidate pairs of the
// quadratic scan in the same order, so the adjacency built is byte-identical
// (same links, same PRRs, same per-node list order), not just set-equal.
func TestLinkByDistanceSpatialMatchesBrute(t *testing.T) {
	radio := ForestRadio()
	for _, seed := range []uint64{1, 7, 42} {
		n := 700
		posRNG := rngutil.New(seed).SubName("positions")
		pos := make([]Point, n)
		for i := range pos {
			pos[i] = Point{X: 260 * posRNG.Float64(), Y: 260 * posRNG.Float64()}
		}
		build := func(threshold int) *Graph {
			var g *Graph
			withSpatialThreshold(threshold, func() {
				g = New(n)
				g.Pos = pos
				linkByDistance(g, radio, 0.10, 0.95, rngutil.New(seed).SubName("shadowing"))
			})
			return g
		}
		brute := build(n + 1)
		spatial := build(1)
		if brute.NumLinks() == 0 {
			t.Fatalf("seed %d: degenerate test, no links generated", seed)
		}
		if !reflect.DeepEqual(brute.adj, spatial.adj) {
			t.Fatalf("seed %d: spatial-hash adjacency differs from brute force", seed)
		}
	}
}

// TestGeneratorsSpatialEquivalence runs the full generators (placement,
// linking, degree cap, connectivity stitch, sort, validate) under both
// regimes. The seeds are chosen so the radio draw already yields a connected
// graph — there the stitcher no-ops and the end-to-end outputs must match
// exactly.
func TestGeneratorsSpatialEquivalence(t *testing.T) {
	gen := func(threshold int, f func() *Graph) *Graph {
		var g *Graph
		withSpatialThreshold(threshold, func() { g = f() })
		return g
	}
	for _, tc := range []struct {
		name string
		f    func() *Graph
	}{
		{"scaled-greenorbs", func() *Graph {
			g, err := GenerateGreenOrbs(ScaledGreenOrbsConfig(700), 3)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"rgg", func() *Graph {
			g, err := RandomGeometric(600, 200, 200, ForestRadio(), 0.10, 9)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			brute := gen(1<<30, tc.f)
			spatial := gen(1, tc.f)
			if !reflect.DeepEqual(brute.adj, spatial.adj) {
				t.Fatal("spatial-hash generator output differs from brute force")
			}
			if !reflect.DeepEqual(brute.Pos, spatial.Pos) {
				t.Fatal("positions differ between regimes")
			}
		})
	}
}

// TestScaledGreenOrbsConfig checks the constant-density scaling contract:
// a scaled instance stays connected and keeps per-node degree statistics in
// the ballpark of the 298-node calibration.
func TestScaledGreenOrbsConfig(t *testing.T) {
	base := GreenOrbs(1)
	baseDeg := float64(2*base.NumLinks()) / float64(base.N())

	nodes := 2000
	if testing.Short() {
		nodes = 1000
	}
	cfg := ScaledGreenOrbsConfig(nodes)
	if cfg.Nodes != nodes {
		t.Fatalf("scaled config has %d nodes, want %d", cfg.Nodes, nodes)
	}
	area := cfg.FieldX * cfg.FieldY
	baseCfg := DefaultGreenOrbsConfig()
	baseArea := baseCfg.FieldX * baseCfg.FieldY
	wantArea := baseArea * float64(nodes) / float64(GreenOrbsNodes)
	if area < 0.9*wantArea || area > 1.1*wantArea {
		t.Fatalf("scaled area %.0f not proportional to node count (want ~%.0f)", area, wantArea)
	}
	g, err := GenerateGreenOrbs(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if comps := g.Components(); len(comps) != 1 {
		t.Fatalf("scaled graph has %d components", len(comps))
	}
	deg := float64(2*g.NumLinks()) / float64(g.N())
	if deg < 0.5*baseDeg || deg > 2*baseDeg {
		t.Fatalf("scaled mean degree %.1f far from calibration %.1f", deg, baseDeg)
	}
}

// TestLinkByDistanceWorkerInvariance generates the same instances under
// GOMAXPROCS 1, 2 and 8: linkSpatial's worker count must not reach the
// adjacency (nil rows included) or the positions.
func TestLinkByDistanceWorkerInvariance(t *testing.T) {
	const n = 4000
	cfg := ScaledGreenOrbsConfig(n)
	gens := []struct {
		name string
		f    func() (*Graph, error)
	}{
		{"scaled-greenorbs", func() (*Graph, error) { return GenerateGreenOrbs(cfg, 5) }},
		{"rgg", func() (*Graph, error) { return RandomGeometric(n, cfg.FieldX, cfg.FieldY, ForestRadio(), 0.10, 5) }},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gen := range gens {
		var ref *Graph
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			g, err := gen.f()
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = g
				continue
			}
			if !reflect.DeepEqual(ref.adj, g.adj) || !reflect.DeepEqual(ref.Pos, g.Pos) {
				t.Fatalf("%s: GOMAXPROCS %d output differs from GOMAXPROCS 1", gen.name, procs)
			}
		}
	}
}

// TestEnsureConnectedFarNode stitches graphs whose nearest cross-component
// pair lies far beyond the grid stitcher's ring search: it must still
// finish, with one component, well within the deadline.
func TestEnsureConnectedFarNode(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func() (*Graph, error)
	}{
		{"lattice+outlier", func() (*Graph, error) {
			g := New(600)
			g.Pos = make([]Point, 600)
			for i := 0; i < 599; i++ {
				g.Pos[i] = Point{X: 5 * float64(i%25), Y: 5 * float64(i/25)}
			}
			g.Pos[599] = Point{X: 1e5}
			ensureConnected(g, ForestRadio(), 0.1)
			return g, g.Validate()
		}},
		{"sparse-rgg", func() (*Graph, error) {
			return RandomGeometric(600, 1e6, 1e6, ForestRadio(), 0.1, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			var g *Graph
			go func() {
				var err error
				g, err = tc.f()
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("connectivity stitch still running after 10 s")
			}
			if comps := g.Components(); len(comps) != 1 {
				t.Fatalf("%d components after stitching", len(comps))
			}
		})
	}
}
