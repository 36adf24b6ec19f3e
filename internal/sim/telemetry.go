package sim

// Telemetry threading for both engine execution paths. The engine resolves
// every instrument pointer once at setup (simTel), ticks a slot counter
// live, and drains the Result accumulators into the registry as deltas —
// periodically (every telFlushEvery visited slots) and at run end. The
// accumulators themselves are the engine's existing Result fields, so the
// hot loop gains no new arithmetic: when telemetry is attached the
// per-slot cost is one atomic add, and when it is not (Config.Telemetry ==
// nil) every site is a single predictable e.tel != nil branch.
//
// The counter catalog (names, units, incrementing path) is documented in
// docs/OBSERVABILITY.md; keep the two in sync.

import "ldcflood/internal/telemetry"

// telFlushEvery is how many visited slots pass between periodic drains of
// the Result accumulators into the telemetry registry. Small enough that a
// watcher of a long run sees counters move, large enough that the flush
// (a couple dozen atomic adds) never shows up in a profile.
const telFlushEvery = 4096

// simTel holds the engine's resolved instrument pointers plus the
// last-flushed value of every drained accumulator, so concurrent runs
// sharing one registry each contribute exact deltas.
type simTel struct {
	slotsVisited *telemetry.Counter
	slotsSkipped *telemetry.Counter
	// awakeEntries drains the slot path's calendar-entry tally; nil on
	// the compact path.
	awakeEntries *telemetry.Counter

	txAttempts  *telemetry.Counter
	txSuccess   *telemetry.Counter
	txLoss      *telemetry.Counter
	txCollision *telemetry.Counter
	txBusy      *telemetry.Counter
	txSync      *telemetry.Counter
	txJammed    *telemetry.Counter
	txCaptured  *telemetry.Counter
	overheard   *telemetry.Counter

	pktInjected *telemetry.Counter
	pktCovered  *telemetry.Counter

	crashes    *telemetry.Counter
	reboots    *telemetry.Counter
	dropped    *telemetry.Counter
	chainFlips *telemetry.Counter

	// Sharded-path instruments, nil when Workers == 0. The batch/chunk
	// counters drain the pool's claim accounting; the planner/merge
	// counters drain the engine's deterministic per-slot tallies (their
	// values are independent of worker count and of whether telemetry is
	// attached — attaching a registry never changes results).
	shardBatches *telemetry.Counter
	shardChunks  *telemetry.Counter
	shardItems   *telemetry.Counter
	planCands    *telemetry.Counter
	mergeRecv    *telemetry.Counter
	mergeOhCands *telemetry.Counter

	visited int64 // slots this run has visited (== slot loop iterations)
	prev    telPrev
}

// telPrev is the last-flushed snapshot of the drained accumulators.
type telPrev struct {
	tx, loss, coll, busy, sync, jam, capt, over int
	injected, covered                           int
	crashes, reboots, dropped                   int
	flips                                       int64

	shardBatches, shardChunks, shardItems int64
	planCands, mergeRecv, mergeOhCands    int64
	awakeEntries                          int64
}

// newSimTel resolves the sim counter set against reg and counts the run
// start and chosen execution path (compact reports whether the fast path
// was selected; workers > 0 reports the sharded resolution mode, which
// composes with either path).
func newSimTel(reg *telemetry.Registry, compact bool, workers int) *simTel {
	reg.Counter("sim.runs.started").Inc()
	if compact {
		reg.Counter("sim.path.compact").Inc()
	} else {
		reg.Counter("sim.path.slots").Inc()
	}
	if workers > 0 {
		reg.Counter("sim.path.sharded").Inc()
		reg.Gauge("sim.workers").Set(int64(workers))
	}
	st := &simTel{
		slotsVisited: reg.Counter("sim.slots.visited"),
		slotsSkipped: reg.Counter("sim.slots.skipped"),
		txAttempts:   reg.Counter("sim.tx.attempts"),
		txSuccess:    reg.Counter("sim.tx.success"),
		txLoss:       reg.Counter("sim.tx.loss"),
		txCollision:  reg.Counter("sim.tx.collision"),
		txBusy:       reg.Counter("sim.tx.busy"),
		txSync:       reg.Counter("sim.tx.sync_miss"),
		txJammed:     reg.Counter("sim.tx.jammed"),
		txCaptured:   reg.Counter("sim.tx.captured"),
		overheard:    reg.Counter("sim.overheard"),
		pktInjected:  reg.Counter("sim.packets.injected"),
		pktCovered:   reg.Counter("sim.packets.covered"),
		crashes:      reg.Counter("fault.crashes"),
		reboots:      reg.Counter("fault.reboots"),
		dropped:      reg.Counter("fault.packets_dropped"),
		chainFlips:   reg.Counter("fault.chain_flips"),
	}
	if !compact {
		st.awakeEntries = reg.Counter("sim.awake.entries")
	}
	if workers > 0 {
		st.shardBatches = reg.Counter("sim.shard.batches")
		st.shardChunks = reg.Counter("sim.shard.chunks")
		st.shardItems = reg.Counter("sim.shard.items")
		st.planCands = reg.Counter("sim.shard.planner.candidates")
		st.mergeRecv = reg.Counter("sim.shard.merge.receivers")
		st.mergeOhCands = reg.Counter("sim.shard.merge.overhear_cands")
	}
	return st
}

// tick is called once per visited slot by both execution paths. It keeps
// sim.slots.visited live and periodically drains the accumulators.
func (st *simTel) tick(e *engine) {
	st.visited++
	st.slotsVisited.Inc()
	if st.visited%telFlushEvery == 0 {
		st.flush(e)
	}
}

// addDelta adds the movement of an int accumulator since the last flush
// and updates the stored floor.
func addDelta(c *telemetry.Counter, cur int, prev *int) {
	if d := cur - *prev; d != 0 {
		c.Add(int64(d))
		*prev = cur
	}
}

// addDelta64 is addDelta for int64 accumulators.
func addDelta64(c *telemetry.Counter, cur int64, prev *int64) {
	if d := cur - *prev; d != 0 {
		c.Add(d)
		*prev = cur
	}
}

// flush drains the Result accumulators (and the fault injector's chain
// flips) into the registry as deltas.
func (st *simTel) flush(e *engine) {
	res := e.res
	// Successful transmissions are derived (attempts minus failures), so
	// take the previous derived value before the per-field floors move.
	prevSuccess := st.prev.tx - (st.prev.loss + st.prev.coll + st.prev.busy + st.prev.sync + st.prev.jam)
	addDelta(st.txAttempts, res.Transmissions, &st.prev.tx)
	if d := (res.Transmissions - res.Failures()) - prevSuccess; d != 0 {
		st.txSuccess.Add(int64(d))
	}
	addDelta(st.txLoss, res.LossFailures, &st.prev.loss)
	addDelta(st.txCollision, res.CollisionFailures, &st.prev.coll)
	addDelta(st.txBusy, res.BusyFailures, &st.prev.busy)
	addDelta(st.txSync, res.SyncFailures, &st.prev.sync)
	addDelta(st.txJammed, res.JamFailures, &st.prev.jam)
	addDelta(st.txCaptured, res.Captures, &st.prev.capt)
	addDelta(st.overheard, res.Overheard, &st.prev.over)
	addDelta(st.pktInjected, e.w.injected, &st.prev.injected)
	addDelta(st.pktCovered, e.covered, &st.prev.covered)
	addDelta(st.crashes, res.Crashes, &st.prev.crashes)
	addDelta(st.reboots, res.Reboots, &st.prev.reboots)
	addDelta(st.dropped, res.CrashDropped, &st.prev.dropped)
	if e.inj != nil {
		if d := e.inj.ChainFlips() - st.prev.flips; d != 0 {
			st.chainFlips.Add(d)
			st.prev.flips = e.inj.ChainFlips()
		}
	}
	if st.awakeEntries != nil {
		addDelta64(st.awakeEntries, e.statAwakeEntries, &st.prev.awakeEntries)
	}
	if st.shardBatches != nil {
		addDelta64(st.shardBatches, e.pool.batches, &st.prev.shardBatches)
		addDelta64(st.shardChunks, e.pool.chunks, &st.prev.shardChunks)
		addDelta64(st.shardItems, e.pool.items, &st.prev.shardItems)
		addDelta64(st.planCands, e.statPlanCands, &st.prev.planCands)
		addDelta64(st.mergeRecv, e.statMergeRecv, &st.prev.mergeRecv)
		addDelta64(st.mergeOhCands, e.statOhCands, &st.prev.mergeOhCands)
	}
}

// finish performs the run-end drain: the final accumulator flush, the
// skipped-slot accounting (TotalSlots minus slots actually visited — zero
// on the reference path, the dormant stretches the compact path never
// iterated otherwise), and the completion counter.
func (st *simTel) finish(e *engine, reg *telemetry.Registry) {
	st.flush(e)
	if skipped := e.res.TotalSlots - st.visited; skipped > 0 {
		st.slotsSkipped.Add(skipped)
	}
	reg.Counter("sim.runs.completed").Inc()
}
