// Command floodsim runs one low-duty-cycle flooding simulation and prints
// its metrics: per-packet flooding delay at the coverage target,
// transmission/failure counts, and energy-model projections.
//
// Usage:
//
//	floodsim [-protocol opt|dbao|of|naive|trickle|dflood|flash] [-duty 0.05] [-m 100]
//	         [-coverage 0.99] [-seed 1] [-topo greenorbs|<file>]
//	         [-toposeed 1] [-inject 1] [-v]
//	         [-trace FILE] [-trace-format text|bin]
//	         [-debug-addr :8080] [-stats]
//
// The default topology is the synthetic 298-node GreenOrbs trace; -topo
// accepts a trace file in the topogen text format instead.
//
// -trace writes the full event trace; -trace-format selects the text
// format (internal/tracelog, default) or the compact binary format
// (internal/tracebin, ~several times smaller — see docs/TRACE.md).
// Convert or inspect either with cmd/tracecat.
//
// -debug-addr serves the live telemetry snapshot (expvar-compatible
// /debug/vars) and net/http/pprof on the given address while the run
// executes; -stats prints the final counter table to stderr. Neither
// affects the simulation. See docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ldcflood/internal/flood"
	"ldcflood/internal/metrics"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/telemetry"
	"ldcflood/internal/topology"
	"ldcflood/internal/tracebin"
	"ldcflood/internal/tracelog"
)

// options collects the flag values one run consumes.
type options struct {
	protoName   string
	topoName    string
	duty        float64
	m           int
	coverage    float64
	seed        uint64
	topoSeed    uint64
	inject      int
	maxSlots    int64
	verbose     bool
	traceFile   string
	traceFormat string
	debugAddr   string    // "" disables the /debug/vars + pprof server
	statsOut    io.Writer // nil disables the final telemetry table
}

func main() {
	var o options
	flag.StringVar(&o.protoName, "protocol", "opt", "flooding protocol: opt, dbao, of, naive, trickle, dflood, flash")
	flag.Float64Var(&o.duty, "duty", 0.05, "duty cycle in (0,1]")
	flag.IntVar(&o.m, "m", 100, "number of packets to flood")
	flag.Float64Var(&o.coverage, "coverage", 0.99, "delivery-ratio target for the delay metric")
	flag.Uint64Var(&o.seed, "seed", 1, "simulation seed")
	flag.StringVar(&o.topoName, "topo", "greenorbs", "topology: 'greenorbs', 'testbed', or a trace file path")
	flag.Uint64Var(&o.topoSeed, "toposeed", 1, "seed for the synthetic topology")
	flag.IntVar(&o.inject, "inject", 1, "slots between packet injections")
	flag.Int64Var(&o.maxSlots, "maxslots", 0, "slot horizon (0 = automatic)")
	flag.BoolVar(&o.verbose, "v", false, "print per-packet delays")
	flag.StringVar(&o.traceFile, "trace", "", "write the full event trace to this file")
	flag.StringVar(&o.traceFormat, "trace-format", "text", "trace encoding: 'text' (tracelog) or 'bin' (compact binary, docs/TRACE.md)")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve live telemetry (/debug/vars) and pprof on this address during the run (e.g. :8080, :0 for an ephemeral port)")
	stats := flag.Bool("stats", false, "print the final telemetry counter table to stderr")
	flag.Parse()
	if *stats {
		o.statsOut = os.Stderr
	}

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "floodsim:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	g, err := loadTopology(o.topoName, o.topoSeed)
	if err != nil {
		return err
	}
	p, err := flood.New(o.protoName)
	if err != nil {
		return err
	}
	if err := schedule.CheckDuty(o.duty); err != nil {
		return err
	}
	period := schedule.PeriodForDuty(o.duty)
	scheds := schedule.AssignUniform(g.N(), period, rngutil.New(o.seed).SubName("schedule"))
	var observer sim.Observer
	var flush func() error
	var binWriter *tracebin.Writer
	if o.traceFile != "" {
		f, err := os.Create(o.traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		switch o.traceFormat {
		case "":
			o.traceFormat = "text"
			fallthrough
		case "text":
			logger := tracelog.NewLogger(f)
			observer, flush = logger, logger.Flush
		case "bin":
			binWriter = tracebin.NewWriter(f)
			observer, flush = binWriter, binWriter.Flush
		default:
			return fmt.Errorf("unknown -trace-format %q (want 'text' or 'bin')", o.traceFormat)
		}
	}
	var reg *telemetry.Registry
	if o.debugAddr != "" || o.statsOut != nil {
		reg = telemetry.New()
		if binWriter != nil {
			binWriter.Instrument(reg)
		}
		// Timer-driven protocols export message/suppression counters
		// (flood.messages, flood.<name>.suppressed) into the registry.
		if ip, ok := p.(interface{ Instrument(*telemetry.Registry) }); ok {
			ip.Instrument(reg)
		}
		if o.debugAddr != "" {
			srv, err := telemetry.Serve(o.debugAddr, reg)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "floodsim: telemetry: serving debug endpoints on %s\n", srv.URL())
		}
		if o.statsOut != nil {
			defer func() {
				if err := reg.Snapshot().WriteTable(o.statsOut); err != nil {
					fmt.Fprintln(os.Stderr, "floodsim: warning:", err)
				}
			}()
		}
	}
	res, err := sim.Run(sim.Config{
		Graph:          g,
		Schedules:      scheds,
		Protocol:       p,
		M:              o.m,
		InjectInterval: o.inject,
		Coverage:       o.coverage,
		Seed:           o.seed,
		MaxSlots:       o.maxSlots,
		Observer:       observer,
		Telemetry:      reg,
	})
	if err != nil {
		return err
	}
	if flush != nil {
		if err := flush(); err != nil {
			return err
		}
	}

	fmt.Printf("topology:       %s (%d nodes, %d links, mean PRR %.2f)\n",
		g.Name, g.N(), g.NumLinks(), g.MeanLinkPRR())
	fmt.Printf("protocol:       %s\n", res.Protocol)
	fmt.Printf("duty cycle:     %.1f%% (period %d slots)\n", o.duty*100, period)
	fmt.Printf("packets:        %d (coverage target %d/%d nodes)\n", res.M, res.CoverNodes, g.N())
	fmt.Printf("completed:      %v in %d slots\n", res.Completed, res.TotalSlots)
	fmt.Printf("mean delay:     %.1f slots\n", res.MeanDelay())
	fmt.Printf("transmissions:  %d\n", res.Transmissions)
	fmt.Printf("failures:       %d (loss %d, collision %d, busy %d)\n",
		res.Failures(), res.LossFailures, res.CollisionFailures, res.BusyFailures)
	fmt.Printf("overheard:      %d\n", res.Overheard)
	if messages, suppressed, ok := metrics.ProtocolCounters(p); ok {
		fmt.Printf("suppressed:     %d (of %d timer firings considered)\n",
			suppressed, messages+suppressed)
		if summary, ok := metrics.SuppressionSummary(p); ok {
			fmt.Printf("supp. per node: mean %.1f, median %.0f, max %.0f\n",
				summary.Mean, summary.Median, summary.Max)
		}
	}

	em := metrics.DefaultEnergyModel()
	totalSeconds := float64(res.TotalSlots) * em.SlotSeconds
	txRate := 0.0
	if totalSeconds > 0 {
		txRate = float64(res.Transmissions) / float64(g.N()) / totalSeconds
	}
	lifetime, delay, gain := em.NetworkingGain(o.duty, res.MeanDelay(), txRate)
	fmt.Printf("est. lifetime:  %.1f days   flooding delay: %.2f s   gain: %.0f\n",
		lifetime/86400, delay, gain)

	if o.verbose {
		fmt.Println("\npacket  inject  cover   delay")
		for p := 0; p < res.M; p++ {
			fmt.Printf("%6d  %6d  %5d  %6d\n", p, res.InjectTime[p], res.CoverTime[p], res.Delay[p])
		}
	}
	return nil
}

func loadTopology(name string, topoSeed uint64) (*topology.Graph, error) {
	switch name {
	case "greenorbs":
		return topology.GreenOrbs(topoSeed), nil
	case "testbed":
		return topology.Testbed(topoSeed), nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return topology.ReadText(f)
}
