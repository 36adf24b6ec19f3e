package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"ldcflood/internal/flood"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/runner"
	"ldcflood/internal/schedule"
	"ldcflood/internal/service"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
	"ldcflood/internal/tracebin"
)

// compactMaxPeriod is the largest hyperperiod the engine's compact-time
// path accepts (internal/sim compactMaxHyperperiod); a compact cell with a
// longer period falls back to the slot-by-slot path.
const compactMaxPeriod = 8192

// env is what one benchmark run gives its workload.
type env struct {
	seed uint64
	dir  string    // private scratch directory, removed when the run ends
	rec  *recorder // non-nil in a traced run
	pass int       // the running pass's span, for spans a pass records itself
	log  io.Writer // progress lines, printed before the result
}

// workload is one named input set. setup builds its inputs from env.seed,
// timing each layer it calls when tr is set; sanity asserts, on the traced
// run's layer metrics, that the workload stresses what it is named for.
type workload struct {
	name      string
	setupReps int
	setup     func(e *env, tr *tracer) (instance, error)
	sanity    func(layers map[string]float64) error
}

// instance is a set-up workload.
type instance interface {
	// pass runs the workload once and verifies its outputs. With tr set
	// the pass is instrumented.
	pass(tr *tracer) (passOut, error)
	close() error
}

// passOut is what one pass observed.
type passOut struct {
	wall, cpu time.Duration
	sims      []float64 // per-simulation wall times in ms, where known
	digests   []string  // per-cell output digests, in cell order
	attempted int       // simulations attempted
	failures  []string  // one line per failed simulation
	layers    map[string]float64
}

var workloads = []workload{
	{name: "paper-grid", setupReps: 15, setup: setupPaperGrid, sanity: func(l map[string]float64) error {
		if want := float64(paperGridCells); l["sim.path_slots"] != want {
			return fmt.Errorf("sim.path_slots = %v, want %v (every cell on the slot-by-slot path)", l["sim.path_slots"], want)
		}
		return nil
	}},
	{name: "timer-grid", setupReps: 15, setup: timerGrid.setup, sanity: func(l map[string]float64) error {
		if l["trace.bytes"] <= 0 {
			return fmt.Errorf("trace.bytes = %v, want > 0", l["trace.bytes"])
		}
		return nil
	}},
	{name: "ultra-low-duty", setupReps: 15, setup: ultraLowDuty.setup, sanity: func(l map[string]float64) error {
		want := 0
		for _, c := range ultraLowDuty.grid {
			if schedule.PeriodForDuty(c.Duty) > compactMaxPeriod {
				want++
			}
		}
		if l["sim.compact_fallbacks"] != float64(want) {
			return fmt.Errorf("sim.compact_fallbacks = %v, want %d (cells with period > %d)", l["sim.compact_fallbacks"], want, compactMaxPeriod)
		}
		return nil
	}},
	{name: "scale-100k", setupReps: 3, setup: scale100k.setup, sanity: func(l map[string]float64) error {
		if want := float64(len(scale100k.grid)); l["sim.path_sharded"] != want {
			return fmt.Errorf("sim.path_sharded = %v, want %v", l["sim.path_sharded"], want)
		}
		return nil
	}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// canonicalTopoSeed is the GreenOrbs-298 instance floodd, sweep and
// floodsim use unless told otherwise (-toposeed 1). The
// 298-node workloads run on it: a flood's cost on one instance is
// heavy-tailed in the instance (a few weakly attached nodes can take most
// of the 99 % coverage time at low duty), so a seeded instance would let
// the seed, not the program, decide the measurement. The workload seed
// selects the simulation seeds instead.
const canonicalTopoSeed = 1

// cell is one simulation of a runner workload; its seed comes from the
// workload seed at set-up.
type cell struct {
	Protocol string
	Duty     float64
	M        int
}

// runnerWorkload is a workload run straight through runner.Run.
type runnerWorkload struct {
	nodes    int // GreenOrbs-298, or a density-preserving scaled GreenOrbs
	grid     []cell
	compact  bool
	sharded  bool // sim.Config.Workers = one per CPU instead of the serial engine
	traceBin bool // stream a binary trace per cell, as sweep -trace-dir -trace-format bin
}

// cross lists every protocol × duty combination reps times, each replica
// with its own simulation seed, so one schedule draw does not decide a
// pass's run time.
func cross(protocols []string, duties []float64, m, reps int) []cell {
	var out []cell
	for _, p := range protocols {
		for _, d := range duties {
			for r := 0; r < reps; r++ {
				out = append(out, cell{Protocol: p, Duty: d, M: m})
			}
		}
	}
	return out
}

var (
	// timerGrid runs trickle three times and dflood twice per duty, so the
	// median simulation falls inside the trickle cells rather than on the
	// gap between the two protocols' run times.
	timerGrid = runnerWorkload{
		nodes: topology.GreenOrbsNodes,
		grid: slices.Concat(
			cross([]string{"trickle"}, []float64{0.02, 0.05, 0.10, 0.20}, 100, 3),
			cross([]string{"dflood"}, []float64{0.02, 0.05, 0.10, 0.20}, 100, 2)),
		compact:  true,
		traceBin: true,
	}
	// ultraLowDuty: period 8000 is the compact-time control; 10000 and
	// 100000 take the slot-by-slot fallback. The period-100000 cells are
	// more than half the grid, so the median simulation is one of them.
	ultraLowDuty = runnerWorkload{
		nodes: topology.GreenOrbsNodes,
		grid: slices.Concat(
			cross([]string{"opt", "dbao"}, []float64{1.25e-4, 1e-4}, 10, 1),
			cross([]string{"opt"}, []float64{1e-5}, 10, 5)),
		compact: true,
	}
	// scale100k's topology comes from the workload seed: at 100k nodes one
	// instance already averages over thousands of neighbourhoods.
	scale100k = runnerWorkload{
		nodes:   100000,
		grid:    cross([]string{"opt", "dbao"}, []float64{0.01}, 4, 1),
		compact: true,
		sharded: true,
	}
)

// inputs are a runner workload's generated inputs.
type inputs struct {
	g      *topology.Graph
	seeds  []uint64 // per cell
	scheds [][]*schedule.Schedule
}

// buildInputs generates the topology (GreenOrbs of the given size from
// topoSeed) with its CSR adjacency, and one schedule set per cell seeded
// from the workload seed. With tr set each layer is timed.
func buildInputs(nodes int, topoSeed, seed uint64, grid []cell, tr *tracer) (inputs, error) {
	cfg := topology.DefaultGreenOrbsConfig()
	if nodes != topology.GreenOrbsNodes {
		cfg = topology.ScaledGreenOrbsConfig(nodes)
	}
	// timed runs one set-up step and, when tracing, records it as a span.
	timed := func(name string, step func() error) (time.Duration, error) {
		t0 := time.Now()
		err := step()
		t1 := time.Now()
		if tr != nil {
			tr.rec.add(span{Name: name, Parent: tr.parent, Cell: -1, Start: tr.rec.at(t0), End: tr.rec.at(t1)})
		}
		return t1.Sub(t0), err
	}
	var (
		in     = inputs{seeds: runner.Seeds(seed, len(grid)), scheds: make([][]*schedule.Schedule, len(grid))}
		alloc0 uint64
	)
	if tr != nil {
		alloc0 = totalAlloc()
	}
	gen, err := timed("topology.generate", func() (err error) {
		in.g, err = topology.GenerateGreenOrbs(cfg, topoSeed)
		return err
	})
	if err != nil {
		return inputs{}, err
	}
	if tr != nil {
		tr.layers["topology.generate_s"] = gen.Seconds()
		tr.layers["topology.alloc_mb"] = mb(totalAlloc() - alloc0)
		tr.layers["topology.links"] = float64(in.g.NumLinks())
		// Graph.CSR memoizes and generation already built it; time a rebuild.
		csr, _ := timed("topology.csr", func() error { topology.NewCSR(in.g); return nil })
		tr.layers["topology.csr_ms"] = float64(csr) / 1e6
	}
	in.g.CSR() // built by generation today; set-up includes it either way
	assign, _ := timed("schedule.assign", func() error {
		for i, c := range grid {
			in.scheds[i] = schedule.AssignUniform(nodes, schedule.PeriodForDuty(c.Duty), rngutil.New(in.seeds[i]).SubName("schedule"))
		}
		return nil
	})
	if tr != nil {
		tr.layers["schedule.assign_ms"] = float64(assign) / 1e6
	}
	return in, nil
}

// runnerInst is a set-up runner workload.
type runnerInst struct {
	w      runnerWorkload
	in     inputs
	dir    string
	passes int
}

func (w runnerWorkload) setup(e *env, tr *tracer) (instance, error) {
	topoSeed := uint64(canonicalTopoSeed)
	if w.nodes != topology.GreenOrbsNodes {
		topoSeed = e.seed
	}
	in, err := buildInputs(w.nodes, topoSeed, e.seed, w.grid, tr)
	if err != nil {
		return nil, err
	}
	return &runnerInst{w: w, in: in, dir: e.dir}, nil
}

func (r *runnerInst) close() error { return nil }

// traceFile is one cell's binary trace being written.
type traceFile struct {
	f  *os.File
	bw *tracebin.Writer
}

func (r *runnerInst) pass(tr *tracer) (passOut, error) {
	r.passes++
	dir := filepath.Join(r.dir, fmt.Sprintf("traces-%d", r.passes))
	defer os.RemoveAll(dir)

	cpu0, t0 := cpuTime(), time.Now()
	cfgs := make([]sim.Config, len(r.w.grid))
	workers := 0
	if r.w.sharded {
		workers = parallelism()
	}
	for i, c := range r.w.grid {
		p, err := flood.New(c.Protocol)
		if err != nil {
			return passOut{}, err
		}
		cfgs[i] = sim.Config{
			Graph: r.in.g, Schedules: r.in.scheds[i], Protocol: p,
			M: c.M, Coverage: coverage, Seed: r.in.seeds[i],
			CompactTime: r.w.compact, Workers: workers,
		}
	}
	var traces []traceFile
	if r.w.traceBin {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return passOut{}, err
		}
		for i, c := range r.w.grid {
			f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s_duty%.4f_%d.tracebin", c.Protocol, c.Duty, i)))
			if err != nil {
				return passOut{}, err
			}
			defer f.Close()
			bw := tracebin.NewWriter(f)
			if tr != nil {
				bw.Instrument(tr.traceReg)
			}
			cfgs[i].Observer = bw
			traces = append(traces, traceFile{f: f, bw: bw})
		}
	}

	b, err := execute(cfgs, tr)
	if err != nil {
		return passOut{}, err
	}
	traceSums := make([]string, len(traces))
	flushStart := time.Now()
	for i, t := range traces {
		if err := t.bw.Flush(); err != nil {
			return passOut{}, fmt.Errorf("trace %d: %w", i, err)
		}
		if err := t.f.Close(); err != nil {
			return passOut{}, fmt.Errorf("trace %d: %w", i, err)
		}
	}
	if tr != nil {
		tr.layers["trace.flush_ms"] = float64(time.Since(flushStart)) / 1e6
	}
	for i, t := range traces {
		if traceSums[i], err = checkTrace(t.f.Name(), b.rs[i].Res); err != nil {
			return passOut{}, fmt.Errorf("trace %d: %w", i, err)
		}
	}

	out := passOut{attempted: len(cfgs), digests: make([]string, len(cfgs))}
	for i, jr := range b.rs {
		c := r.w.grid[i]
		name := fmt.Sprintf("cell %d (%s duty %g)", i, c.Protocol, c.Duty)
		if jr.Err != nil {
			out.failures = append(out.failures, fmt.Sprintf("%s: %v", name, jr.Err))
			continue
		}
		if why := gate(tallyOf(jr.Res)); why != "" {
			out.failures = append(out.failures, name+": "+why)
		}
		record := service.CSVRow(service.Cell{Protocol: c.Protocol, Duty: c.Duty, Seed: r.in.seeds[i]}, jr.Res)
		if len(traceSums) > 0 {
			out.digests[i] = digest(record, traceSums[i])
		} else {
			out.digests[i] = digest(record)
		}
	}
	out.sims = knownMillis(b.spans)
	out.wall, out.cpu = time.Since(t0), cpuTime()-cpu0
	return out, nil
}

// knownMillis lists the known job durations in milliseconds.
func knownMillis(spans []jobSpan) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Known {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// checkTrace decodes a finished binary trace, checks it holds one event
// per injection, transmission attempt, overheard copy and covered packet
// of res, and returns the hex SHA-256 of its bytes.
func checkTrace(path string, res *sim.Result) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	rd := tracebin.NewReader(io.TeeReader(f, h))
	var events int
	for {
		if _, err := rd.Next(); err == io.EOF {
			break
		} else if err != nil {
			return "", err
		}
		events++
	}
	if res != nil {
		if want := 2*res.M + res.Transmissions + res.Overheard; events != want {
			return "", fmt.Errorf("%d events, want %d", events, want)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
