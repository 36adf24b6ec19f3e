// Command perfbench is the repository's benchmark. It runs one named
// workload, checks every simulation it runs, and prints each metric by
// name and unit; the last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 480, "failed": 0, "metrics": {"wall_s": {"value": 2.31, "unit": "s"}, ...}}
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench -workload paper-grid [-seed 1] [-seconds 10] [-trace 0|1]
//
// With -trace 0 it sets the workload up several times, then repeats
// untraced passes for -seconds and reports the end-to-end metrics. With
// -trace 1 it sets up once, runs one untraced and one instrumented pass,
// requires identical results from both, and reports the per-layer metrics;
// the spans of that run are written to the work directory. See README.md
// for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// defaultSeed is the workload seed the committed reference digests were
// made with.
const defaultSeed = 1

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// report is one run's outcome.
type report struct {
	passes    int
	attempted int
	failures  []string
	metrics   map[string]float64
	refMatch  int
	refCells  int
	digests   []string
	sanityErr error
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed: selects the topology instance and the simulation seeds")
	seconds := fs.Float64("seconds", 10, "how long the untraced passes of a -trace 0 run repeat")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from a traced pass")
	workDir := fs.String("work-dir", filepath.Join(".bench_build", "perfbench"), "directory for scratch state and span files")
	refPath := fs.String("write-ref", "", "store this run's digests as the workload's reference in this file (use with the default seed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workDir, w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, dir: dir, log: stdout}

	var rep report
	if *trace == 1 {
		e.rec = newRecorder()
		rep, err = tracedRun(w, e)
		if err == nil {
			err = e.rec.writeFile(filepath.Join(*workDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed)))
		}
	} else {
		rep, err = timedRun(w, e, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *seed == defaultSeed {
		ref, err := loadReference(referenceFile)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		rep.refMatch, rep.refCells = matchReference(ref, w.name, rep.digests)
	}
	if *refPath != "" {
		if err := writeReference(*refPath, w.name, rep.digests); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if *trace == 1 {
		rep.metrics["bench.ref_match"] = float64(rep.refMatch)
		rep.metrics["bench.ref_cells"] = float64(rep.refCells)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if err := printReport(stdout, stderr, w.name, *seed, rep, defs); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// timedRun measures the end-to-end metrics: untraced passes repeat on one
// set-up until budget has passed. Set-up then runs setupReps-1 more times
// and the median of all counts. The extra set-ups come last because the
// runtime zeroes reused memory, which would make allocations the program
// never writes resident and change what the passes measure; for the same
// reason peak RSS is read before them.
func timedRun(w workload, e *env, budget time.Duration) (report, error) {
	t0 := time.Now()
	inst, err := w.setup(e, nil)
	if err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{time.Since(t0).Seconds()}

	var (
		rep               report
		walls, cpus, maxs []float64
		sims              []float64
	)
	start := time.Now()
	for rep.passes == 0 || time.Since(start) < budget {
		out, err := inst.pass(nil)
		if err != nil {
			inst.close()
			return report{}, err
		}
		rep.passes++
		rep.attempted += out.attempted
		rep.failures = append(rep.failures, out.failures...)
		if rep.digests == nil {
			rep.digests = out.digests
		} else {
			rep.failures = append(rep.failures, diverged(rep.digests, out.digests, fmt.Sprintf("pass %d", rep.passes))...)
		}
		fmt.Fprintf(e.log, "pass %d: %.4f s wall, %.4f s cpu\n", rep.passes, out.wall.Seconds(), out.cpu.Seconds())
		walls = append(walls, out.wall.Seconds())
		cpus = append(cpus, out.cpu.Seconds())
		sims = append(sims, out.sims...)
		maxs = append(maxs, percentile(out.sims, 100))
	}
	peak := peakRSSMB()
	for len(setups) < w.setupReps {
		if err := inst.close(); err != nil {
			return report{}, err
		}
		inst = nil
		t0 := time.Now()
		if inst, err = w.setup(e, nil); err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := inst.close(); err != nil {
		return report{}, err
	}
	rep.metrics = map[string]float64{
		"wall_s":      median(walls),
		"setup_s":     median(setups),
		"sim_p50_ms":  median(sims),
		"sim_max_ms":  median(maxs),
		"cpu_s":       median(cpus),
		"peak_rss_mb": peak,
	}
	return rep, nil
}

// tracedRun measures the per-layer metrics: one untraced pass, then one
// instrumented pass whose results must be identical.
func tracedRun(w workload, e *env) (report, error) {
	root := e.rec.begin("perfbench."+w.name, -1, -1)
	setup := e.rec.begin("setup", root, -1)
	setupTr := newTracer(e.rec, setup)
	inst, err := w.setup(e, setupTr)
	if err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	e.rec.end(setup)
	defer inst.close()

	plain := e.rec.begin("pass.untraced", root, -1)
	e.pass = plain
	p0, err := inst.pass(nil)
	if err != nil {
		return report{}, err
	}
	e.rec.end(plain)
	traced := e.rec.begin("pass.traced", root, -1)
	tr := newTracer(e.rec, traced)
	p1, err := inst.pass(tr)
	if err != nil {
		return report{}, err
	}
	e.rec.end(traced)
	e.rec.end(root)

	rep := report{
		passes:    2,
		attempted: p0.attempted + p1.attempted,
		failures:  append(append(p0.failures, p1.failures...), diverged(p0.digests, p1.digests, "traced pass")...),
		digests:   p0.digests,
		metrics:   map[string]float64{},
	}
	// Layer values: set-up, then the traced pass, then what the untraced
	// pass observed without instrumentation (paper-grid's service and its
	// runner batch), which describes the real workload and so wins.
	for _, src := range []map[string]float64{setupTr.layers, tr.layers, p0.layers} {
		for k, v := range src {
			rep.metrics[k] = v
		}
	}
	rep.metrics["bench.trace_overhead"] = p1.wall.Seconds()/p0.wall.Seconds() - 1
	for _, d := range perLayer {
		if _, ok := rep.metrics[d.Name]; !ok {
			rep.metrics[d.Name] = 0
		}
	}
	rep.sanityErr = w.sanity(rep.metrics)
	return rep, nil
}

// diverged lists the cells whose digests differ between two passes.
func diverged(want, got []string, what string) []string {
	var out []string
	if len(want) != len(got) {
		return []string{fmt.Sprintf("%s: %d cells, want %d", what, len(got), len(want))}
	}
	for i := range want {
		if want[i] != got[i] {
			out = append(out, fmt.Sprintf("%s: cell %d result differs", what, i))
		}
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport writes the human-readable lines, then the result object as
// the last line of stdout. Failures go to stderr.
func printReport(stdout, stderr io.Writer, workload string, seed uint64, rep report, defs []metricDef) error {
	host, err := json.Marshal(hostInfo())
	if err != nil {
		return err
	}
	for _, f := range rep.failures {
		fmt.Fprintln(stderr, "perfbench: FAILED", f)
	}
	if rep.sanityErr != nil {
		fmt.Fprintln(stderr, "perfbench: layer sanity:", rep.sanityErr)
	}
	failed := len(rep.failures)
	if failed > rep.attempted { // a simulation can fail the gate and diverge too
		failed = rep.attempted
	}
	fmt.Fprintf(stdout, "host %s\n", host)
	fmt.Fprintf(stdout, "workload %s seed %d: %d passes, %d simulations, failed_frac %g, ref_match %d/%d\n",
		workload, seed, rep.passes, rep.attempted, float64(failed)/float64(rep.attempted), rep.refMatch, rep.refCells)
	out := map[string]metricValue{}
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "  %-30s %14.6g %s\n", d.Name, v, d.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{failed == 0 && rep.sanityErr == nil, rep.attempted, failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}
