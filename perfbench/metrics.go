package main

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units (metrics_test.go checks
// it) and adds the regression bounds.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the system sees, measured on untraced
// passes only. failed_frac is not among them because it is 0 on a correct
// program; it is the result line's failed ÷ attempted instead.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"sim_p50_ms", "ms"},
	{"sim_max_ms", "ms"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, one group per layer. A layer a
// workload does not exercise reports 0 (service.* outside paper-grid,
// sim.shard.* outside scale-100k, trace.* outside timer-grid).
var perLayer = []metricDef{
	{"service.submit_ms", "ms"},
	{"service.queue_ms", "ms"},
	{"service.tail_ms", "ms"},
	{"service.http_requests", "count"},

	{"runner.batch_s", "s"},
	{"runner.job_wall_sum_s", "s"},
	{"runner.utilization", "ratio"},
	{"runner.journal_appends", "count"},

	{"topology.generate_s", "s"},
	{"topology.csr_ms", "ms"},
	{"topology.links", "count"},
	{"topology.alloc_mb", "MB"},
	{"schedule.assign_ms", "ms"},

	{"sim.run_s", "s"},
	{"sim.self_s", "s"},
	{"sim.slots", "count"},
	{"sim.slots_visited", "count"},
	{"sim.visit_frac", "ratio"},
	{"sim.ns_per_visited_slot", "ns"},
	{"sim.path_compact", "count"},
	{"sim.path_slots", "count"},
	{"sim.path_sharded", "count"},
	{"sim.compact_fallbacks", "count"},
	{"sim.tx_attempts", "count"},
	{"sim.tx_useful_frac", "ratio"},
	{"sim.overheard", "count"},
	{"sim.alloc_mb", "MB"},

	{"sim.shard.batches", "count"},
	{"sim.shard.chunks", "count"},
	{"sim.shard.items", "count"},
	{"sim.shard.planner_candidates", "count"},
	{"sim.shard.work_s", "s"},
	{"sim.shard.span_s", "s"},
	{"sim.shard.parallelism", "ratio"},
	{"sim.shard.serial_s", "s"},

	{"flood.reset_ms", "ms"},
	{"flood.intents_s", "s"},
	{"flood.plan_s", "s"},
	{"flood.select_s", "s"},
	{"flood.calls", "count"},
	{"flood.messages", "count"},
	{"flood.suppressed", "count"},
	{"flood.suppressed_frac", "ratio"},

	{"trace.records", "count"},
	{"trace.bytes", "bytes"},
	{"trace.emit_s", "s"},
	{"trace.flush_ms", "ms"},

	{"bench.trace_overhead", "ratio"},
	{"bench.ref_match", "count"},
	{"bench.ref_cells", "count"},
}
