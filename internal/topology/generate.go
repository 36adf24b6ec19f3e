package topology

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"ldcflood/internal/rngutil"
)

// GreenOrbsNodes is the node count of the GreenOrbs deployment trace used
// throughout the paper's evaluation (Section V-B).
const GreenOrbsNodes = 298

// GreenOrbsConfig parameterizes the synthetic GreenOrbs-like topology.
// The defaults (DefaultGreenOrbsConfig) are calibrated so the aggregate
// features the paper's evaluation depends on — node count, mean degree,
// PRR spread with a lossy tail, and a multi-hop diameter — match what the
// GreenOrbs system papers report for the forest deployment.
type GreenOrbsConfig struct {
	Nodes     int        // number of sensors including the source (node 0)
	FieldX    float64    // field width, meters
	FieldY    float64    // field height, meters
	Clusters  int        // number of dense clusters (forest plots)
	ClusterR  float64    // cluster scatter radius, meters
	Uniform   float64    // fraction of nodes placed uniformly instead of clustered
	Radio     RadioModel // propagation model
	MinPRR    float64    // links with expected PRR below this are dropped
	MaxPRR    float64    // ceiling on link PRR (real radios never reach 1), 0 = uncapped
	MaxDegree int        // cap on neighbor count (densest regions), 0 = uncapped
}

// DefaultGreenOrbsConfig returns the calibrated defaults.
func DefaultGreenOrbsConfig() GreenOrbsConfig {
	return GreenOrbsConfig{
		Nodes:     GreenOrbsNodes,
		FieldX:    130,
		FieldY:    130,
		Clusters:  9,
		ClusterR:  18,
		Uniform:   0.35,
		Radio:     ForestRadio(),
		MinPRR:    0.10,
		MaxPRR:    0.95,
		MaxDegree: 0,
	}
}

// ScaledGreenOrbsConfig returns the GreenOrbs calibration scaled to the
// given node count at constant node density: the field grows with √nodes
// and the cluster count with the area, while radio, PRR bounds and cluster
// radius stay fixed — so per-node degree statistics match the 298-node
// trace and only the network's extent (hop diameter, flooding depth)
// grows. This is the scale-workload generator behind cmd/topogen -nodes
// and cmd/engbench -scale (10k–100k nodes). At these sizes link
// generation runs on all cores over a spatial hash and evaluates the PRR
// only for pairs whose SNR can reach MinPRR (see linkSpatial).
func ScaledGreenOrbsConfig(nodes int) GreenOrbsConfig {
	cfg := DefaultGreenOrbsConfig()
	if nodes <= 0 {
		return cfg
	}
	factor := float64(nodes) / float64(GreenOrbsNodes)
	cfg.Nodes = nodes
	cfg.FieldX *= math.Sqrt(factor)
	cfg.FieldY *= math.Sqrt(factor)
	if c := int(math.Round(float64(cfg.Clusters) * factor)); c >= 1 {
		cfg.Clusters = c
	}
	return cfg
}

// GreenOrbs builds the synthetic 298-node GreenOrbs-like trace with default
// calibration. The same seed always yields the same topology.
func GreenOrbs(seed uint64) *Graph {
	g, err := GenerateGreenOrbs(DefaultGreenOrbsConfig(), seed)
	if err != nil {
		// The default configuration is tested to always succeed.
		panic("topology: default GreenOrbs generation failed: " + err.Error())
	}
	return g
}

// GenerateGreenOrbs builds a synthetic forest topology per cfg. The result
// is always connected (bridging links are added between components if the
// radio draw leaves the graph split). An error is returned for invalid
// configuration.
func GenerateGreenOrbs(cfg GreenOrbsConfig, seed uint64) (*Graph, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("topology: GreenOrbs needs >= 2 nodes, got %d", cfg.Nodes)
	}
	if !validField(cfg.FieldX, cfg.FieldY) {
		return nil, fmt.Errorf("topology: field %vx%v is not positive and finite", cfg.FieldX, cfg.FieldY)
	}
	if cfg.MinPRR <= 0 || cfg.MinPRR >= 1 {
		return nil, fmt.Errorf("topology: MinPRR %v outside (0,1)", cfg.MinPRR)
	}
	if cfg.Clusters < 1 {
		return nil, fmt.Errorf("topology: need >= 1 cluster")
	}
	root := rngutil.New(seed)
	posRNG := root.SubName("positions")
	shadowRNG := root.SubName("shadowing")

	g := New(cfg.Nodes)
	g.Name = fmt.Sprintf("greenorbs-synthetic(seed=%d)", seed)
	g.Pos = make([]Point, cfg.Nodes)

	// Cluster centers, kept away from the field border.
	centers := make([]Point, cfg.Clusters)
	for i := range centers {
		centers[i] = Point{
			X: cfg.FieldX * (0.12 + 0.76*posRNG.Float64()),
			Y: cfg.FieldY * (0.12 + 0.76*posRNG.Float64()),
		}
	}
	for i := 0; i < cfg.Nodes; i++ {
		if posRNG.Float64() < cfg.Uniform {
			g.Pos[i] = Point{X: cfg.FieldX * posRNG.Float64(), Y: cfg.FieldY * posRNG.Float64()}
			continue
		}
		c := centers[posRNG.Intn(len(centers))]
		p := Point{
			X: c.X + posRNG.NormMeanStd(0, cfg.ClusterR),
			Y: c.Y + posRNG.NormMeanStd(0, cfg.ClusterR),
		}
		p.X = clamp(p.X, 0, cfg.FieldX)
		p.Y = clamp(p.Y, 0, cfg.FieldY)
		g.Pos[i] = p
	}

	linkByDistance(g, cfg.Radio, cfg.MinPRR, cfg.MaxPRR, shadowRNG)
	if cfg.MaxDegree > 0 {
		capDegree(g, cfg.MaxDegree)
	}
	ensureConnected(g, cfg.Radio, cfg.MinPRR)
	g.SortNeighbors()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// spatialHashMinNodes is the node count above which linkByDistance and the
// large-graph connectivity stitcher switch from O(n²) pair scans to the
// spatial hash. linkByDistance produces byte-identical graphs either way
// (the hash only prunes pairs the distance cutoff would skip), so for it
// the threshold is purely a constant-factor tradeoff; the connectivity
// stitcher's bridge links may differ between the two regimes. A variable,
// not a const, so the equivalence tests can pin both strategies against
// each other on the same topology.
var spatialHashMinNodes = 512

// spatialGrid buckets node indices by ⌊pos/cell⌋ for O(1) neighborhood
// queries during link generation and connectivity stitching. Cell lists
// hold node ids in ascending order (nodes are inserted in id order).
type spatialGrid struct {
	cell  float64
	cells map[[2]int32][]int32
}

// newSpatialGrid builds a grid over pos with the given cell size (> 0).
func newSpatialGrid(pos []Point, cell float64) *spatialGrid {
	sg := &spatialGrid{cell: cell, cells: make(map[[2]int32][]int32, len(pos)/4+1)}
	for i, p := range pos {
		k := sg.key(p)
		sg.cells[k] = append(sg.cells[k], int32(i))
	}
	return sg
}

func (sg *spatialGrid) key(p Point) [2]int32 {
	return [2]int32{int32(math.Floor(p.X / sg.cell)), int32(math.Floor(p.Y / sg.cell))}
}

// linkByDistance adds every link whose shadowed PRR clears minPRR, clamped
// to maxPRR when positive. Each unordered pair draws its shadowing from a
// sub-stream keyed by the pair, so the result does not depend on iteration
// order. Pairs farther than the distance where even a very lucky (-3σ)
// shadow draw cannot reach minPRR are skipped without consuming
// randomness. Below spatialHashMinNodes a quadratic scan links pairs as it
// finds them; above it linkSpatial builds the same adjacency — same links,
// same PRRs, same per-node list order — in parallel from a spatial hash.
func linkByDistance(g *Graph, radio RadioModel, minPRR, maxPRR float64, shadowRNG *rngutil.Stream) {
	maxDist := radio.ConnectedRange(minPRR) * math.Pow(10, 3*radio.ShadowStd/(10*radio.Exponent))
	n := g.N()
	if n < spatialHashMinNodes || g.Pos == nil || !(maxDist > 0) || math.IsInf(maxDist, 0) {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				tryLink(g, radio, minPRR, maxPRR, shadowRNG, u, v, maxDist)
			}
		}
		return
	}
	linkSpatial(g, radio, minPRR, maxPRR, shadowRNG, maxDist)
}

// tryLink is linkByDistance's per-pair body: skip beyond the cutoff, draw
// the pair-keyed shadow, link if the PRR clears minPRR.
func tryLink(g *Graph, radio RadioModel, minPRR, maxPRR float64, shadowRNG *rngutil.Stream, u, v int, maxDist float64) {
	d := g.Pos[u].Dist(g.Pos[v])
	if d > maxDist {
		return
	}
	pairRNG := shadowRNG.Sub(uint64(u)<<32 | uint64(v))
	shadow := pairRNG.NormMeanStd(0, radio.ShadowStd)
	prr := radio.PRR(d, shadow)
	if prr >= minPRR {
		g.AddLink(u, v, clampPRR(prr, maxPRR))
	}
}

// clampPRR caps an accepted link's PRR at 1 and, when positive, at maxPRR.
func clampPRR(prr, maxPRR float64) float64 {
	if prr > 1 {
		prr = 1
	}
	if maxPRR > 0 && prr > maxPRR {
		prr = maxPRR
	}
	return prr
}

// linkChunkNodes is how many consecutive source nodes one linkSpatial work
// item covers. Node u only scans partners v > u, so low ids cost more;
// many small items handed out on demand keep the workers evenly loaded.
const linkChunkNodes = 1024

// linkChunk is one work item of linkSpatial: for each u in [lo, lo+len(deg))
// its deg[u-lo] accepted partners v > u, ascending, packed in half as
// Link{To: v, PRR: prr}.
type linkChunk struct {
	lo   int
	deg  []int32
	half []Link
}

// linker holds linkSpatial's read-only inputs, shared by every worker.
type linker struct {
	pos            []Point
	sg             *spatialGrid
	radio          RadioModel
	minPRR, maxPRR float64
	shadowRNG      *rngutil.Stream
	maxDist        float64
	far2           float64 // maxDist² with a margin: beyond it Hypot > maxDist
	snrSkip        float64 // below it prrFromSNR < minPRR
}

// linkSpatial is linkByDistance's large-graph path, for a linkless g with
// positions. A spatial hash with cell size maxDist puts every in-range
// partner of u in u's 3×3 cell neighbourhood. runtime.GOMAXPROCS(0)
// workers claim chunks of consecutive u and, for each in-range v > u, draw
// the pair-keyed shadow exactly as tryLink does. A pair whose SNR is below
// the bisected threshold radio.minSNR(minPRR), less a 1e-6 dB margin, cannot
// reach minPRR and skips the PRR evaluation; every other pair is decided by
// the same prr >= minPRR test as tryLink. The workers share g.Pos, the grid
// and shadowRNG read-only and write only their own chunks.
//
// Assembly then counts degrees and carves every row from one backing
// array, filling rows in (u ascending, v ascending) pair order — the
// quadratic scan's AddLink order — so the adjacency is byte-identical to
// it. Each row's capacity is its length, so a later AddLink (the
// connectivity stitcher) reallocates the row instead of overwriting the
// next one; rows without links stay nil.
func linkSpatial(g *Graph, radio RadioModel, minPRR, maxPRR float64, shadowRNG *rngutil.Stream, maxDist float64) {
	n := g.N()
	if g.NumLinks() != 0 {
		panic("topology: linkSpatial needs a linkless graph")
	}
	lk := &linker{
		pos:       g.Pos,
		sg:        newSpatialGrid(g.Pos, maxDist),
		radio:     radio,
		minPRR:    minPRR,
		maxPRR:    maxPRR,
		shadowRNG: shadowRNG,
		maxDist:   maxDist,
		far2:      maxDist * maxDist * (1 + 1e-9),
		snrSkip:   radio.minSNR(minPRR) - 1e-6,
	}
	chunks := make([]linkChunk, (n+linkChunkNodes-1)/linkChunkNodes)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(chunks)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []Link
			for {
				ci := int(next.Add(1) - 1)
				if ci >= len(chunks) {
					return
				}
				lo := ci * linkChunkNodes
				chunks[ci], buf = lk.chunk(lo, min(lo+linkChunkNodes, n), buf[:0])
			}
		}()
	}
	wg.Wait()

	deg := make([]int32, n)
	for _, c := range chunks {
		for i, d := range c.deg {
			deg[c.lo+i] += d
		}
		for _, l := range c.half {
			deg[l.To]++
		}
	}
	total := 0
	for _, d := range deg {
		total += int(d)
	}
	back := make([]Link, total)
	off := 0
	for u, d := range deg {
		if d > 0 {
			g.adj[u] = back[off : off : off+int(d)]
			off += int(d)
		}
	}
	for _, c := range chunks {
		half := c.half
		for i, d := range c.deg {
			u := c.lo + i
			for _, l := range half[:d] {
				g.adj[u] = append(g.adj[u], l)
				g.adj[l.To] = append(g.adj[l.To], Link{To: u, PRR: l.PRR})
			}
			half = half[d:]
		}
	}
	g.invalidate()
}

// chunk computes linkSpatial's accepted pairs for sources [lo, hi). It
// collects them in the worker's scratch buf and returns an exact-size copy
// together with buf for reuse.
func (lk *linker) chunk(lo, hi int, buf []Link) (linkChunk, []Link) {
	c := linkChunk{lo: lo, deg: make([]int32, hi-lo)}
	pos, radio := lk.pos, lk.radio
	for u := lo; u < hi; u++ {
		start := len(buf)
		ck := lk.sg.key(pos[u])
		for dy := int32(-1); dy <= 1; dy++ {
			for dx := int32(-1); dx <= 1; dx++ {
				for _, v := range lk.sg.cells[[2]int32{ck[0] + dx, ck[1] + dy}] {
					if int(v) <= u {
						continue
					}
					// The squared distance rejects most out-of-range
					// candidates without a Hypot; its margin leaves the
					// decision to the same test as tryLink.
					ex, ey := pos[u].X-pos[v].X, pos[u].Y-pos[v].Y
					if ex*ex+ey*ey > lk.far2 {
						continue
					}
					d := pos[u].Dist(pos[v])
					if d > lk.maxDist {
						continue
					}
					pairRNG := lk.shadowRNG.SubValue(uint64(u)<<32 | uint64(v))
					shadow := pairRNG.NormMeanStd(0, radio.ShadowStd)
					if radio.SNR(d, shadow) < lk.snrSkip {
						continue
					}
					if prr := radio.PRR(d, shadow); prr >= lk.minPRR {
						buf = append(buf, Link{To: int(v), PRR: clampPRR(prr, lk.maxPRR)})
					}
				}
			}
		}
		// Cells are visited in a fixed order, not by id: sort the few
		// accepted partners so rows fill in ascending v.
		acc := buf[start:]
		slices.SortFunc(acc, func(a, b Link) int { return a.To - b.To })
		c.deg[u-lo] = int32(len(acc))
	}
	c.half = slices.Clone(buf)
	return c, buf
}

// capDegree trims each node's adjacency to the maxDegree best links by PRR,
// keeping symmetry: a link survives only if it is within both endpoints'
// kept sets.
func capDegree(g *Graph, maxDegree int) {
	kept := make(map[[2]int]bool) // directed picks u→v
	for u := 0; u < g.N(); u++ {
		links := append([]Link(nil), g.Neighbors(u)...)
		// Highest PRR first; stable on node id for determinism.
		for i := 1; i < len(links); i++ {
			for j := i; j > 0 && (links[j].PRR > links[j-1].PRR ||
				(links[j].PRR == links[j-1].PRR && links[j].To < links[j-1].To)); j-- {
				links[j], links[j-1] = links[j-1], links[j]
			}
		}
		if len(links) > maxDegree {
			links = links[:maxDegree]
		}
		for _, l := range links {
			kept[[2]int{u, l.To}] = true
		}
	}
	for _, e := range g.Links() {
		if !kept[[2]int{e.U, e.V}] || !kept[[2]int{e.V, e.U}] {
			g.RemoveLink(e.U, e.V)
		}
	}
}

// ensureConnected stitches components together by linking the closest
// cross-component pair with a mid-quality link until one component remains.
// The PRR assigned is the shadow-free model value clamped into
// [minPRR, 0.95] so the bridge behaves like a plausible marginal link.
//
// Above spatialHashMinNodes the exact global closest-pair scan (O(passes ×
// n²)) is replaced by a grid-accelerated stitcher that attaches each minor
// component to its nearest outside node; the committed small presets
// (GreenOrbs, Testbed) stay on the exact path and are byte-identical to
// earlier releases.
func ensureConnected(g *Graph, radio RadioModel, minPRR float64) {
	if g.N() >= spatialHashMinNodes && g.Pos != nil {
		ensureConnectedGrid(g, radio, minPRR)
		return
	}
	for {
		comps := g.Components()
		if len(comps) <= 1 {
			return
		}
		// Find the globally closest pair spanning the first component and
		// any other component.
		compOf := make([]int, g.N())
		for ci, comp := range comps {
			for _, v := range comp {
				compOf[v] = ci
			}
		}
		bestU, bestV, bestD := -1, -1, math.Inf(1)
		for _, u := range comps[0] {
			for v := 0; v < g.N(); v++ {
				if compOf[v] == 0 {
					continue
				}
				d := g.Pos[u].Dist(g.Pos[v])
				if d < bestD {
					bestU, bestV, bestD = u, v, d
				}
			}
		}
		prr := clamp(radio.PRR(bestD, 0), minPRR, 0.95)
		g.AddLink(bestU, bestV, prr)
	}
}

// ensureConnectedGrid is the large-topology connectivity stitcher: every
// component except the largest links to the nearest node outside itself,
// found with an expanding-ring search over a spatial grid, and passes
// repeat until one component remains (components at least halve per pass;
// one pass suffices in practice). Deterministic: ring cells and their
// occupants are visited in a fixed order and ties keep the first find.
func ensureConnectedGrid(g *Graph, radio RadioModel, minPRR float64) {
	cell := radio.ConnectedRange(minPRR)
	if !(cell > 0) || math.IsInf(cell, 0) {
		cell = 1
	}
	sg := newSpatialGrid(g.Pos, cell)
	for {
		comps := g.Components()
		if len(comps) <= 1 {
			return
		}
		giant := 0
		for ci, comp := range comps {
			if len(comp) > len(comps[giant]) {
				giant = ci
			}
		}
		compOf := make([]int32, g.N())
		for ci, comp := range comps {
			for _, v := range comp {
				compOf[v] = int32(ci)
			}
		}
		for ci, comp := range comps {
			if ci == giant {
				continue
			}
			bestU, bestV, bestD := -1, -1, math.Inf(1)
			for _, u := range comp {
				sg.nearestOutside(g.Pos, compOf, int32(ci), u, &bestU, &bestV, &bestD)
			}
			if bestU >= 0 {
				g.AddLink(bestU, bestV, clamp(radio.PRR(bestD, 0), minPRR, 0.95))
			}
		}
	}
}

// nearestOutside updates (bestU, bestV, bestD) with the closest node to u
// whose component differs from ci, searching grid rings outward until the
// ring's minimum possible distance exceeds the incumbent. Once the rings
// searched span more cells than there are nodes, an exact scan of every
// node is the cheaper way on, and it ends the search however far away the
// nearest outside node lies.
func (sg *spatialGrid) nearestOutside(pos []Point, compOf []int32, ci int32, u int, bestU, bestV *int, bestD *float64) {
	ck := sg.key(pos[u])
	for r := int32(0); ; r++ {
		// Ring r's closest possible point is (r-1) cells away, so once an
		// incumbent beats that bound no farther ring can improve on it.
		if *bestV >= 0 && float64(r-1)*sg.cell > *bestD {
			return
		}
		if side := 2*int64(r) + 1; side*side > int64(len(pos)) {
			for v := range pos {
				if compOf[v] == ci {
					continue
				}
				if d := pos[u].Dist(pos[v]); d < *bestD {
					*bestU, *bestV, *bestD = u, v, d
				}
			}
			return
		}
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				if dx > -r && dx < r && dy > -r && dy < r {
					continue // interior cells were covered by smaller rings
				}
				for _, v := range sg.cells[[2]int32{ck[0] + dx, ck[1] + dy}] {
					if compOf[v] == ci {
						continue
					}
					if d := pos[u].Dist(pos[int(v)]); d < *bestD {
						*bestU, *bestV, *bestD = u, int(v), d
					}
				}
			}
		}
	}
}

// validField reports whether a generator's field is positive and finite,
// so every placed node has finite coordinates.
func validField(x, y float64) bool {
	return x > 0 && y > 0 && !math.IsInf(x, 1) && !math.IsInf(y, 1)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// TestbedNodes is the node count of the Indriya-style indoor preset.
const TestbedNodes = 139

// Testbed builds a 139-node indoor-testbed-like topology (Indriya-class):
// nodes on a quasi-grid with placement jitter, milder path loss than the
// forest but heavier shadowing from walls, and denser connectivity. It
// complements the GreenOrbs forest preset for experiments that want a
// second, structurally different deployment.
func Testbed(seed uint64) *Graph {
	cfg := GreenOrbsConfig{
		Nodes:    TestbedNodes,
		FieldX:   60,
		FieldY:   40,
		Clusters: 3, // three floors' worth of clusters
		ClusterR: 12,
		Uniform:  0.5,
		Radio:    testbedRadio(),
		MinPRR:   0.10,
		MaxPRR:   0.95,
	}
	g, err := GenerateGreenOrbs(cfg, seed)
	if err != nil {
		panic("topology: testbed generation failed: " + err.Error())
	}
	g.Name = fmt.Sprintf("testbed-synthetic(seed=%d)", seed)
	return g
}

// testbedRadio is the Testbed preset's indoor radio: the open-field model
// with multipath attenuation and heavier shadowing from walls.
func testbedRadio() RadioModel {
	radio := OpenFieldRadio()
	radio.Exponent = 2.8
	radio.ShadowStd = 5.0
	return radio
}

// RandomGeometric places n nodes uniformly in a fieldX × fieldY area and
// links pairs via the radio model exactly as GenerateGreenOrbs does, but
// without clustering. The result is made connected.
func RandomGeometric(n int, fieldX, fieldY float64, radio RadioModel, minPRR float64, seed uint64) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: RandomGeometric needs >= 2 nodes")
	}
	if !validField(fieldX, fieldY) {
		return nil, fmt.Errorf("topology: field %vx%v is not positive and finite", fieldX, fieldY)
	}
	if minPRR <= 0 || minPRR >= 1 {
		return nil, fmt.Errorf("topology: MinPRR %v outside (0,1)", minPRR)
	}
	root := rngutil.New(seed)
	posRNG := root.SubName("positions")
	g := New(n)
	g.Name = fmt.Sprintf("rgg(n=%d,seed=%d)", n, seed)
	g.Pos = make([]Point, n)
	for i := range g.Pos {
		g.Pos[i] = Point{X: fieldX * posRNG.Float64(), Y: fieldY * posRNG.Float64()}
	}
	linkByDistance(g, radio, minPRR, 0, root.SubName("shadowing"))
	ensureConnected(g, radio, minPRR)
	g.SortNeighbors()
	return g, g.Validate()
}

// Grid builds a rows × cols lattice with the given spacing; each node links
// to its 4-neighborhood with uniform PRR. Useful as an "ideal network"
// (PRR 1) for validating the theory against the simulator.
func Grid(rows, cols int, prr float64) *Graph {
	if rows <= 0 || cols <= 0 {
		panic("topology: Grid needs positive dimensions")
	}
	g := New(rows * cols)
	g.Name = fmt.Sprintf("grid(%dx%d)", rows, cols)
	g.Pos = make([]Point, rows*cols)
	const spacing = 10.0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			g.Pos[i] = Point{X: float64(c) * spacing, Y: float64(r) * spacing}
			if c+1 < cols {
				g.AddLink(i, i+1, prr)
			}
			if r+1 < rows {
				g.AddLink(i, i+cols, prr)
			}
		}
	}
	g.SortNeighbors()
	return g
}

// Line builds an n-node path graph with uniform PRR; node 0 is one end.
func Line(n int, prr float64) *Graph {
	if n <= 0 {
		panic("topology: Line needs n > 0")
	}
	g := New(n)
	g.Name = fmt.Sprintf("line(%d)", n)
	g.Pos = make([]Point, n)
	for i := 0; i < n; i++ {
		g.Pos[i] = Point{X: float64(i) * 10}
		if i+1 < n {
			g.AddLink(i, i+1, prr)
		}
	}
	return g
}

// Star builds a hub-and-spoke graph: node 0 is the hub linked to all others
// with uniform PRR. The adjacency is assembled directly (already sorted)
// rather than through AddLink, whose duplicate scan over the hub's growing
// list would make a maximum-degree star quadratic — the CSR fuzz corpus
// builds 50k-node stars.
func Star(n int, prr float64) *Graph {
	if n < 2 {
		panic("topology: Star needs n >= 2")
	}
	if prr <= 0 || prr > 1 || math.IsNaN(prr) {
		panic(fmt.Sprintf("topology: PRR %v outside (0,1]", prr))
	}
	g := New(n)
	g.Name = fmt.Sprintf("star(%d)", n)
	hub := make([]Link, n-1)
	for i := 1; i < n; i++ {
		hub[i-1] = Link{To: i, PRR: prr}
		g.adj[i] = []Link{{To: 0, PRR: prr}}
	}
	g.adj[0] = hub
	return g
}

// Complete builds the complete graph on n nodes with uniform PRR. Complete
// graphs are the setting in which Algorithm 1's hypercube dissemination
// achieves the theoretical FWL, so this is the main theory-validation
// topology.
func Complete(n int, prr float64) *Graph {
	if n < 2 {
		panic("topology: Complete needs n >= 2")
	}
	g := New(n)
	g.Name = fmt.Sprintf("complete(%d)", n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddLink(u, v, prr)
		}
	}
	g.SortNeighbors()
	return g
}

// CompleteHetero builds a complete graph whose link PRRs are drawn from a
// truncated normal with the given mean and standard deviation (clamped to
// [0.05, 1]). It is the heterogeneous-link setting Section IV-B defers to
// simulation: same mean quality, different spread.
func CompleteHetero(n int, meanPRR, stdPRR float64, seed uint64) *Graph {
	if n < 2 {
		panic("topology: CompleteHetero needs n >= 2")
	}
	if meanPRR <= 0 || meanPRR > 1 {
		panic(fmt.Sprintf("topology: mean PRR %v outside (0,1]", meanPRR))
	}
	if stdPRR < 0 {
		panic("topology: negative PRR std")
	}
	rng := rngutil.New(seed).SubName("hetero-prr")
	g := New(n)
	g.Name = fmt.Sprintf("complete-hetero(%d,mean=%.2f,std=%.2f)", n, meanPRR, stdPRR)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			prr := clamp(rng.NormMeanStd(meanPRR, stdPRR), 0.05, 1)
			g.AddLink(u, v, prr)
		}
	}
	g.SortNeighbors()
	return g
}

// Ring builds an n-node cycle with uniform PRR.
func Ring(n int, prr float64) *Graph {
	if n < 3 {
		panic("topology: Ring needs n >= 3")
	}
	g := New(n)
	g.Name = fmt.Sprintf("ring(%d)", n)
	for i := 0; i < n; i++ {
		g.AddLink(i, (i+1)%n, prr)
	}
	g.SortNeighbors()
	return g
}

// BinaryTree builds a complete-ish binary tree on n nodes rooted at node 0
// (node i's children are 2i+1 and 2i+2) with uniform PRR.
func BinaryTree(n int, prr float64) *Graph {
	if n < 2 {
		panic("topology: BinaryTree needs n >= 2")
	}
	g := New(n)
	g.Name = fmt.Sprintf("btree(%d)", n)
	for i := 0; i < n; i++ {
		if c := 2*i + 1; c < n {
			g.AddLink(i, c, prr)
		}
		if c := 2*i + 2; c < n {
			g.AddLink(i, c, prr)
		}
	}
	g.SortNeighbors()
	return g
}
