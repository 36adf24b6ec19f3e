package main

import (
	"context"
	"runtime"
	"syscall"
	"time"

	"ldcflood/internal/metrics"
	"ldcflood/internal/runner"
	"ldcflood/internal/sim"
	"ldcflood/internal/telemetry"
)

// parallelism is the runner's worker count: one per CPU the process may use.
func parallelism() int { return runtime.GOMAXPROCS(0) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// batch is one finished runner.Run call.
type batch struct {
	rs    runner.Results
	spans []jobSpan
	wall  time.Duration
}

// execute runs cfgs through runner.Run with one worker per CPU, the way
// cmd/sweep and the service do. Each job's interval comes from the
// runner's own progress stream (see jobSpans), so nothing is attached to
// the cells unless tr is set; then tr instruments them and records the
// batch.
func execute(cfgs []sim.Config, tr *tracer) (batch, error) {
	var events []completion
	opts := runner.Options{
		Workers: parallelism(),
		Progress: func(p runner.Progress) {
			events = append(events, completion{Done: p.Done, Slots: p.Slots, Elapsed: p.Elapsed})
		},
	}
	if tr != nil {
		tr.attach(cfgs, &opts)
	}
	start := time.Now()
	rs, st := runner.Run(context.Background(), cfgs, opts)
	slots := make([]int64, len(rs))
	for i, r := range rs {
		if r.Res != nil {
			slots[i] = r.Res.TotalSlots
		}
	}
	spans, err := jobSpans(slots, opts.Workers, events)
	if err != nil {
		return batch{}, err
	}
	b := batch{rs: rs, spans: spans, wall: st.Wall}
	if tr != nil {
		tr.collect(cfgs, b, start)
	}
	return b, nil
}

// tracer is the instrumentation of one traced pass: a telemetry registry
// per cell and one for the runner, the protocol timing wrapper, a timing
// observer around any observer the workload attaches, and sim.ShardStats
// on sharded cells. It fills layers with the per-layer metrics.
type tracer struct {
	rec      *recorder
	parent   int // the traced pass's span
	layers   map[string]float64
	traceReg *telemetry.Registry // counters of the workload's trace writers

	runReg *telemetry.Registry
	probes []*probe
	alloc0 uint64
}

// probe is one cell's instrumentation.
type probe struct {
	inner sim.Protocol
	reg   *telemetry.Registry
	calls callTimes
	obs   *timedObserver
	shard *sim.ShardStats
}

func newTracer(rec *recorder, parent int) *tracer {
	return &tracer{rec: rec, parent: parent, layers: map[string]float64{}, traceReg: telemetry.New()}
}

func (t *tracer) attach(cfgs []sim.Config, opts *runner.Options) {
	t.runReg = telemetry.New()
	opts.Telemetry = t.runReg
	t.probes = make([]*probe, len(cfgs))
	for i := range cfgs {
		c := &cfgs[i]
		p := &probe{inner: c.Protocol, reg: telemetry.New()}
		c.Protocol = wrapProtocol(c.Protocol, &p.calls)
		c.Telemetry = p.reg
		if c.Observer != nil {
			p.obs = &timedObserver{inner: c.Observer}
			c.Observer = p.obs
		}
		if c.Workers > 0 {
			p.shard = new(sim.ShardStats)
			c.ShardStats = p.shard
		}
		t.probes[i] = p
	}
	t.alloc0 = totalAlloc()
}

// collect turns the probes into spans and per-layer metrics.
func (t *tracer) collect(cfgs []sim.Config, b batch, start time.Time) {
	L := t.layers
	L["sim.alloc_mb"] = mb(totalAlloc() - t.alloc0)

	workers := parallelism()
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	jobWall := t.runReg.Timer("runner.job_wall").Total().Seconds()
	L["runner.batch_s"] = b.wall.Seconds()
	L["runner.job_wall_sum_s"] = jobWall
	L["runner.utilization"] = jobWall / (float64(workers) * b.wall.Seconds())
	L["runner.journal_appends"] = float64(t.runReg.Counter("runner.journal.appends").Value())
	batchID := t.rec.add(span{Name: "runner.batch", Parent: t.parent, Cell: -1,
		Start: t.rec.at(start), End: t.rec.at(start.Add(b.wall))})

	sum := map[string]int64{}
	var (
		slots, fallbacks, messages, suppressed   int64
		runNS, selfNS, emitNS, shardSerialNS     int64
		resetNS, intentsNS, planNS, selNS, calls int64
		shardWork, shardSpan                     int64
	)
	for i, p := range t.probes {
		snap := p.reg.Snapshot()
		for k, v := range snap {
			sum[k] += v
		}
		if cfgs[i].CompactTime && snap["sim.path.compact"] == 0 {
			fallbacks++
		}
		if res := b.rs[i].Res; res != nil {
			slots += res.TotalSlots
		}
		if m, s, ok := metrics.ProtocolCounters(p.inner); ok {
			messages += m
			suppressed += s
		}
		c := &p.calls
		resetNS += c.reset.ns.Load()
		intentsNS += c.intents.ns.Load()
		planNS += c.plan.ns.Load()
		selNS += c.sel.ns.Load()
		calls += c.reset.calls.Load() + c.intents.calls.Load() + c.plan.calls.Load() + c.sel.calls.Load()
		if p.obs != nil {
			emitNS += p.obs.busyNS
		}
		if p.shard != nil {
			shardWork += p.shard.WorkNS
			shardSpan += p.shard.SpanNS
		}

		js := b.spans[i]
		if !js.Known {
			continue
		}
		s0, s1 := t.rec.at(start.Add(js.Start)), t.rec.at(start.Add(js.End))
		id := t.rec.add(span{Name: "sim.run", Parent: batchID, Cell: i, Start: s0, End: s1})
		children := []struct {
			name string
			tm   *timing
		}{{"flood.reset", &c.reset}, {"flood.intents", &c.intents}, {"flood.plan", &c.plan}, {"flood.select", &c.sel}}
		for _, ch := range children {
			if n := ch.tm.calls.Load(); n > 0 {
				t.rec.add(span{Name: ch.name, Parent: id, Cell: i, Start: s0, End: s1, Busy: ch.tm.ns.Load(), Calls: n})
			}
		}
		if p.obs != nil && p.obs.events > 0 {
			t.rec.add(span{Name: "trace.emit", Parent: id, Cell: i, Start: s0, End: s1, Busy: p.obs.busyNS, Calls: p.obs.events})
		}
		runNS += s1 - s0
		selfNS += t.rec.self(id)
		if p.shard != nil {
			shardSerialNS += (s1 - s0) - p.shard.BatchWallNS
		}
	}

	visited := sum["sim.slots.visited"]
	L["sim.run_s"] = float64(runNS) / 1e9
	L["sim.self_s"] = float64(selfNS) / 1e9
	L["sim.slots"] = float64(slots)
	L["sim.slots_visited"] = float64(visited)
	L["sim.visit_frac"] = ratio(visited, slots)
	L["sim.ns_per_visited_slot"] = ratio(runNS, visited)
	L["sim.path_compact"] = float64(sum["sim.path.compact"])
	L["sim.path_slots"] = float64(sum["sim.path.slots"])
	L["sim.path_sharded"] = float64(sum["sim.path.sharded"])
	L["sim.compact_fallbacks"] = float64(fallbacks)
	L["sim.tx_attempts"] = float64(sum["sim.tx.attempts"])
	L["sim.tx_useful_frac"] = ratio(sum["sim.tx.success"], sum["sim.tx.attempts"])
	L["sim.overheard"] = float64(sum["sim.overheard"])

	L["sim.shard.batches"] = float64(sum["sim.shard.batches"])
	L["sim.shard.chunks"] = float64(sum["sim.shard.chunks"])
	L["sim.shard.items"] = float64(sum["sim.shard.items"])
	L["sim.shard.planner_candidates"] = float64(sum["sim.shard.planner.candidates"])
	L["sim.shard.work_s"] = float64(shardWork) / 1e9
	L["sim.shard.span_s"] = float64(shardSpan) / 1e9
	L["sim.shard.parallelism"] = ratio(shardWork, shardSpan)
	L["sim.shard.serial_s"] = float64(shardSerialNS) / 1e9

	L["flood.reset_ms"] = float64(resetNS) / 1e6
	L["flood.intents_s"] = float64(intentsNS) / 1e9
	L["flood.plan_s"] = float64(planNS) / 1e9
	L["flood.select_s"] = float64(selNS) / 1e9
	L["flood.calls"] = float64(calls)
	L["flood.messages"] = float64(messages)
	L["flood.suppressed"] = float64(suppressed)
	L["flood.suppressed_frac"] = ratio(suppressed, messages+suppressed)

	L["trace.records"] = float64(t.traceReg.Counter("trace.records").Value())
	L["trace.bytes"] = float64(t.traceReg.Counter("trace.bytes").Value())
	L["trace.emit_s"] = float64(emitNS) / 1e9
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
