package sim

// Sharded slot resolution (Config.Workers >= 1): the large-topology
// execution mode. The serial engine draws every delivery decision from one
// shared loss stream in slot order, which makes the decisions inherently
// sequential — the position of a draw depends on the outcome of every draw
// before it. The sharded discipline re-keys that randomness: each receiver
// (and each potential overhearer) derives a private stream from (run seed,
// slot, node) and consumes only it, so the per-node decisions are pure
// functions of pre-slot state and can be evaluated concurrently by a
// bounded worker pool, then merged in a fixed ascending-node order. Results
// are bit-for-bit identical for every worker count; they differ from the
// Workers == 0 stream by construction (the shared-stream draw order cannot
// be reproduced shard-locally).
//
// A slot resolves in phases:
//
//	A (serial)   faults, injection, chain Sync, awake set — in the caller.
//	B            protocol intents. Protocols implementing ShardPlanner
//	             (see planner.go) plan per-receiver candidates in parallel
//	             and select serially; others run their serial Intents.
//	             Validation and the syncRNG draws stay a shared sequential
//	             stream either way.
//	C (parallel) per-receiver delivery decisions into rxRec.
//	D (serial)   merge rxRec in ascending receiver order: counters,
//	             deliveries, Observer callbacks.
//	E (parallel) overhearing: workers scan the successful senders'
//	             concatenated neighbor rows, filter to awake, silent,
//	             untargeted nodes, claim each survivor with an atomic
//	             compare-and-swap (so a node adjacent to two successes is
//	             decided exactly once), and decide the claimed nodes into
//	             per-chunk hit lists.
//	F (serial)   concatenate the hit lists and sort the hits into ascending
//	             node order — O(delivered·log delivered), not O(row entries
//	             scanned) — then shared coverage accounting and scratch
//	             cleanup.
//
// Pool mechanics: workers are persistent goroutines; a batch publishes an
// atomic claim counter over fixed-size chunks and every worker (plus the
// submitting goroutine) steals the next unclaimed chunk until the batch
// drains. Chunk size is count/(workers·chunksPerWorker) floored at a
// per-phase minimum keyed to the per-item cost — for the plan and overhear
// phases the count is exactly the slot's awake-bucket density, so dense
// slots get many small chunks (fine-grained stealing) and sparse slots
// collapse to a single inline call with no synchronization at all. Chunk
// geometry never affects results — decisions are keyed per node, and the
// only cross-chunk state (overhear hit lists) is merged and sorted into
// ascending node order before any world mutation.

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// rxKind classifies a receiver's slot outcome, mirroring the serial
// engine's per-receiver switch.
type rxKind uint8

const (
	rxJam rxKind = iota
	rxBusy
	rxCollision // collision with no capture
	rxCapture   // capture effect salvaged deliverIdx
	rxSeq       // sequential attempts; deliverIdx is the first success
)

// rxRecord is one receiver's delivery decision, produced by a worker in
// phase C and applied serially in phase D.
type rxRecord struct {
	kind rxKind
	// deliverIdx indexes the delivered intent within the receiver's intent
	// group, or -1 when nothing was decoded.
	deliverIdx int32
}

// ohHit is one overhearing delivery: node decoded the success at index
// succ. Produced into per-chunk lists, concatenated and sorted by node id
// before application, which reproduces the serial ascending delivery
// order regardless of which chunk claimed the node.
type ohHit struct {
	node int32
	succ int32
}

// ohChunk is one chunk's overhear output, padded to a cache line so
// workers appending to neighboring chunks never share one: the hits, and
// the nodes this chunk claimed via ohSeen (walked to reset the flags and
// tallied into the candidate telemetry).
type ohChunk struct {
	hits    []ohHit
	claimed []int32
	_       [16]byte
}

// Per-phase chunk-size floors. A chunk must amortize one atomic claim
// (~tens of ns), so cheap per-item phases take coarser floors than the
// row-scanning ones. The ceiling count/(workers·chunksPerWorker) dominates
// on dense slots; these floors only matter near the single-chunk cutoff.
const (
	chunksPerWorker = 32
	planMinChunk    = 2 // PlanReceiver: neighbor-row scan + keyed draws
	rxMinChunk      = 4 // decideReceiver: a few draws per receiver
	ohMinChunk      = 4 // decideOverhear: per-candidate filter + draws
	fcfsMinChunk    = 8 // OldestNeeded bitset scan
)

// debugMinChunk caps every phase's chunk-size floor. The default is above
// all per-phase floors and therefore inert; the adversarial stress and
// fuzz suites lower it to force one-item chunks and maximal interleaving.
// Chunk geometry never affects results — decisions are keyed per node.
var debugMinChunk = 64

// ShardStats is the sharded path's opt-in performance instrumentation,
// filled through Config.ShardStats. Attaching it switches the pool into
// a single-threaded profiling mode: every batch keeps the chunk geometry
// of the configured worker count, but its chunks execute sequentially on
// the submitting goroutine, each timed individually. Results stay
// bit-for-bit identical to any normal run (chunk geometry and execution
// order never affect outcomes — decisions are keyed per node), but wall
// time resembles a one-worker run. The point is measurement honesty:
// per-chunk costs are observed contention-free, the way Cilk's work/span
// profiler measures a DAG on one worker to predict its W-worker
// makespan. Timing pooled execution directly would fold scheduler noise
// — and, on core-starved machines, timeslicing between workers — into
// every chunk.
//
// WorkNS accumulates the busy time of every chunk of every batch.
// SpanNS accumulates the modeled per-batch makespan: an exact replay of
// the pool's claim-order list schedule over the measured chunk
// durations on W virtual worker clocks (see profileBatch); single-chunk
// batches contribute their full duration (one chunk cannot
// parallelize).
// BatchWallNS equals the wall time spent inside batches (sequential
// execution makes it the same as WorkNS), so run wall - BatchWallNS is
// the serial residue outside the batches. cmd/engbench derives its
// workers_speedup metric from exactly these fields; see
// cmd/engbench/scale.go.
type ShardStats struct {
	Batches     int64 // batches executed, single-chunk calls included
	Chunks      int64 // chunks across all batches
	Items       int64 // items across all batches
	WorkNS      int64 // summed per-chunk busy time, measured contention-free
	SpanNS      int64 // summed modeled per-batch makespan (schedule replay)
	BatchWallNS int64 // wall time inside batches (= WorkNS under profiling)
}

// shardPool is a bounded set of persistent workers draining atomically
// claimed chunks of index ranges. The submitting goroutine participates in
// every batch, so a pool of w workers runs w-1 goroutines.
type shardPool struct {
	workers int
	wake    []chan struct{} // one buffered slot per spawned worker
	stop    chan struct{}

	// Current batch, written by the submitter before the wake sends and
	// read by workers after the receives (the channel orders the accesses).
	fn    func(worker, chunk, lo, hi int)
	count int
	chunk int
	next  atomic.Int64
	wg    sync.WaitGroup

	// stats is non-nil when profiling mode is on (see ShardStats); batches
	// then run sequentially on the submitter and never reach the workers.
	// clocks is the profiling mode's per-worker virtual time, reused
	// across batches to replay each batch's claim-order list schedule.
	stats  *ShardStats
	clocks []int64

	// Deterministic batch accounting, drained into telemetry by the
	// engine. Submitter-only writes.
	batches, chunks, items int64
}

func newShardPool(workers int, stats *ShardStats) *shardPool {
	p := &shardPool{workers: workers, stop: make(chan struct{}), stats: stats}
	p.wake = make([]chan struct{}, workers-1)
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
		go p.work(i + 1)
	}
	return p
}

func (p *shardPool) work(id int) {
	for {
		select {
		case <-p.wake[id-1]:
		case <-p.stop:
			return
		}
		p.drain(id)
		p.wg.Done()
	}
}

func (p *shardPool) close() { close(p.stop) }

// drain claims and runs chunks until the batch is exhausted. Chunk indices
// are lo/chunk, so fn can address per-chunk output slots without any
// shared bookkeeping.
func (p *shardPool) drain(worker int) {
	count, chunk := p.count, p.chunk
	for {
		lo := int(p.next.Add(int64(chunk))) - chunk
		if lo >= count {
			return
		}
		hi := min(lo+chunk, count)
		p.fn(worker, lo/chunk, lo, hi)
	}
}

// plan returns the chunk geometry runShards will use for a batch of count
// items with the given per-phase floor: size count/(workers·chunksPerWorker)
// rounded up, floored at min(minChunk, debugMinChunk). Exposed separately
// so callers can size per-chunk output arenas before submitting.
func (p *shardPool) plan(count, minChunk int) (chunk, nchunks int) {
	if minChunk > debugMinChunk {
		minChunk = debugMinChunk
	}
	if minChunk < 1 {
		minChunk = 1
	}
	chunk = (count + p.workers*chunksPerWorker - 1) / (p.workers * chunksPerWorker)
	if chunk < minChunk {
		chunk = minChunk
	}
	nchunks = (count + chunk - 1) / chunk
	return chunk, nchunks
}

// runShards partitions [0, count) into chunks and runs fn over them on
// every pool member concurrently, returning when all are processed. fn
// must write only to indices in its range (or to the chunk slot named by
// its chunk argument). Single-chunk batches run inline on the submitter
// with zero synchronization.
func (p *shardPool) runShards(count, minChunk int, fn func(worker, chunk, lo, hi int)) {
	if count <= 0 {
		return
	}
	chunk, nchunks := p.plan(count, minChunk)
	if p.stats != nil {
		p.profileBatch(fn, count, chunk, nchunks)
		return
	}
	if p.workers == 1 || nchunks == 1 {
		fn(0, 0, 0, count)
		return
	}
	p.fn, p.count, p.chunk = fn, count, chunk
	p.next.Store(0)
	p.batches++
	p.chunks += int64(nchunks)
	p.items += int64(count)
	p.wg.Add(len(p.wake))
	for _, c := range p.wake {
		c <- struct{}{}
	}
	p.drain(0)
	p.wg.Wait()
	p.fn = nil
}

// profileBatch is the ShardStats execution mode: the batch keeps the
// configured worker count's chunk geometry but runs its chunks
// sequentially on the submitter, timing each one contention-free. All
// chunks report worker 0 — per-worker arenas then share one slot, which
// changes where results are staged but not what they are. The telemetry
// claim counters mirror the normal path: only batches the pool would
// have fanned out are counted as pooled work.
//
// The batch's SpanNS contribution is an exact replay of the pool's
// schedule over the measured durations: chunks are claimed off an atomic
// counter in index order, each by whichever worker frees up first, so
// assigning chunk durations to the minimum of W virtual worker clocks
// reproduces the claim-order list schedule; the makespan is the largest
// clock. This is tighter than the closed-form Graham bound
// work/W + (1-1/W)·max-chunk, which charges the worst chunk's full
// imbalance to every batch — with heavy-tailed chunk durations (a dense
// neighbor row among early-outs) the bound overstates real makespans by
// whole factors, while the replay converges to work/W plus the true
// trailing-chunk tail.
func (p *shardPool) profileBatch(fn func(worker, chunk, lo, hi int), count, chunk, nchunks int) {
	if p.workers > 1 && nchunks > 1 {
		p.batches++
		p.chunks += int64(nchunks)
		p.items += int64(count)
	}
	clocks := p.clocks
	if clocks == nil {
		clocks = make([]int64, p.workers)
		p.clocks = clocks
	}
	for i := range clocks {
		clocks[i] = 0
	}
	// Clock reads are chained — each chunk's end stamp is the next one's
	// start — so the batch pays nchunks+1 reads, not 2·nchunks. On dense
	// slots chunks are a few hundred ns, and the unchained version's
	// extra read per chunk showed up as several percent of the whole run
	// attributed to the serial spine.
	var work int64
	prev := time.Now()
	for c, lo := 0, 0; lo < count; c, lo = c+1, lo+chunk {
		hi := min(lo+chunk, count)
		fn(0, c, lo, hi)
		now := time.Now()
		d := int64(now.Sub(prev))
		prev = now
		work += d
		early := 0
		for i := 1; i < len(clocks); i++ {
			if clocks[i] < clocks[early] {
				early = i
			}
		}
		clocks[early] += d
	}
	span := clocks[0]
	for _, c := range clocks[1:] {
		if c > span {
			span = c
		}
	}
	s := p.stats
	s.Batches++
	s.Chunks += int64(nchunks)
	s.Items += int64(count)
	s.WorkNS += work
	s.SpanNS += span
	s.BatchWallNS += work
}

// resolveSlotSharded is the sharded counterpart of resolveSlot. See the
// package comment at the top of this file for the phase structure.
func (e *engine) resolveSlotSharded(t int64) error {
	w, res, cfg := e.w, e.res, &e.cfg

	// Phase A tail: advance every fault chain to t now, serially, so the
	// workers' effPRR queries below are pure reads.
	if e.inj != nil {
		e.inj.Sync(t)
	}
	// The slot's stream subtree root. Written here (serially), only read
	// by workers.
	e.slotStream = e.shardRoot.SubValue(uint64(t))

	// Phase B.
	if e.planner != nil {
		if err := e.planIntents(t); err != nil {
			return err
		}
	} else if err := e.collectIntents(t); err != nil {
		return err
	}
	e.statMergeRecv += int64(len(e.rxList))

	// Phase C: every targeted receiver decides its outcome from its
	// private (seed, slot, receiver) stream.
	if cap(e.rxRec) < len(e.rxList) {
		e.rxRec = make([]rxRecord, len(e.rxList))
	}
	e.rxRec = e.rxRec[:len(e.rxList)]
	e.pool.runShards(len(e.rxList), rxMinChunk, func(_, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			e.decideReceiver(i, t)
		}
	})

	// Phase D: apply the records in ascending receiver order — the same
	// order the serial path visits receivers — so counters, deliveries and
	// Observer callbacks are deterministic.
	e.successes = e.successes[:0]
	for i, r := range e.rxList {
		txs := e.groupTxs(i)
		res.Transmissions += len(txs)
		for _, tx := range txs {
			res.TxPerNode[tx.in.From]++
		}
		e.targeted[r] = true
		rec := e.rxRec[i]
		switch rec.kind {
		case rxJam:
			res.JamFailures += len(txs)
			if cfg.Observer != nil {
				for _, tx := range txs {
					cfg.Observer.OnTransmit(t, tx.in.From, r, tx.in.Packet, TxJammed)
				}
			}
		case rxBusy:
			res.BusyFailures += len(txs)
			if cfg.Observer != nil {
				for _, tx := range txs {
					cfg.Observer.OnTransmit(t, tx.in.From, r, tx.in.Packet, TxBusy)
				}
			}
		case rxCollision:
			res.CollisionFailures += len(txs)
			if cfg.Observer != nil {
				for _, tx := range txs {
					cfg.Observer.OnTransmit(t, tx.in.From, r, tx.in.Packet, TxCollision)
				}
			}
		case rxCapture:
			best := txs[rec.deliverIdx]
			res.Captures++
			e.deliverNow(best.in.Packet, r, t)
			e.successes = append(e.successes, success{best.in.From, r, best.in.Packet})
			res.CollisionFailures += len(txs) - 1
			if cfg.Observer != nil {
				for j, tx := range txs {
					outcome := TxCollision
					if j == int(rec.deliverIdx) {
						outcome = TxSuccess
					}
					cfg.Observer.OnTransmit(t, tx.in.From, r, tx.in.Packet, outcome)
				}
			}
		case rxSeq:
			if rec.deliverIdx < 0 {
				res.LossFailures += len(txs)
				if cfg.Observer != nil {
					for _, tx := range txs {
						cfg.Observer.OnTransmit(t, tx.in.From, r, tx.in.Packet, TxLoss)
					}
				}
			} else {
				got := txs[rec.deliverIdx]
				res.LossFailures += len(txs) - 1
				e.deliverNow(got.in.Packet, r, t)
				e.successes = append(e.successes, success{got.in.From, r, got.in.Packet})
				if cfg.Observer != nil {
					for j, tx := range txs {
						outcome := TxSuccess
						if j < int(rec.deliverIdx) {
							outcome = TxLoss
						} else if j > int(rec.deliverIdx) {
							outcome = TxRedundant
						}
						cfg.Observer.OnTransmit(t, tx.in.From, r, tx.in.Packet, outcome)
					}
				}
			}
		}
	}

	// Phases E + F: overhearing, entirely on the pool. The successful
	// senders' (symmetric) neighbor rows are logically concatenated into
	// one index space (ohOff is a prefix sum over row lengths); workers
	// scan their index range, filter to awake, silent, untargeted nodes,
	// claim each survivor with a compare-and-swap on its ohSeen flag —
	// exactly one claimer decides any node, reproducing the serial
	// dedup's accounting — and decide the claimed node against the slot's
	// successes. Which chunk claims a node contested between two rows is
	// scheduling-dependent, but the decision is a pure function of
	// (seed, slot, node), so the hit set is not; the merge sorts the hits
	// into ascending node order before any delivery —
	// O(delivered·log delivered), never O(row entries scanned).
	if cfg.Protocol.Overhears() && len(e.successes) > 0 {
		for si, s := range e.successes {
			e.senderSuccess[s.from] = int32(si)
		}
		rows := e.ohRows[:0]
		off := e.ohOff[:0]
		total := 0
		for _, s := range e.successes {
			row, _ := e.csr.Row(s.from)
			rows = append(rows, row)
			off = append(off, int32(total))
			total += len(row)
		}
		off = append(off, int32(total))
		e.ohRows, e.ohOff = rows, off
		if total > 0 {
			_, nchunks := e.pool.plan(total, ohMinChunk)
			for len(e.ohHits) < nchunks {
				e.ohHits = append(e.ohHits, ohChunk{})
			}
			hits := e.ohHits[:nchunks]
			e.pool.runShards(total, ohMinChunk, func(_, c, lo, hi int) {
				si := sort.Search(len(rows), func(j int) bool { return int(off[j+1]) > lo })
				hs := hits[c].hits[:0]
				cl := hits[c].claimed[:0]
				for k := lo; k < hi; k++ {
					for k >= int(off[si+1]) {
						si++
					}
					o := int(rows[si][k-int(off[si])])
					if !w.awake[o] || e.targeted[o] || w.transmitting[o] || e.recvNow[o] {
						continue
					}
					if !e.ohSeen[o].CompareAndSwap(false, true) {
						continue
					}
					cl = append(cl, int32(o))
					if dsi := e.decideOverhear(o, t); dsi >= 0 {
						hs = append(hs, ohHit{node: int32(o), succ: dsi})
					}
				}
				hits[c].hits, hits[c].claimed = hs, cl
			})
			all := e.ohAll[:0]
			for c := range hits {
				all = append(all, hits[c].hits...)
				e.statOhCands += int64(len(hits[c].claimed))
			}
			e.ohAll = all
			// Ascending node order, matching the serial path's delivery
			// order. Node ids are unique within a slot's hits (the claim
			// guarantees it).
			slices.SortFunc(all, func(a, b ohHit) int { return int(a.node - b.node) })
			for _, h := range all {
				s := e.successes[h.succ]
				e.deliverNow(s.packet, int(h.node), t)
				res.Overheard++
				if cfg.Observer != nil {
					cfg.Observer.OnOverhear(t, s.from, int(h.node), s.packet)
				}
			}
			for c := range hits {
				for _, o := range hits[c].claimed {
					e.ohSeen[o].Store(false)
				}
			}
		}
		for _, s := range e.successes {
			e.senderSuccess[s.from] = -1
		}
	}

	e.accountCoverage(t)
	e.cleanupSlot()
	return nil
}

// decideReceiver computes rxRec[i]: the outcome at receiver rxList[i],
// drawing only from the receiver's keyed stream. Pure with respect to
// shared state — it reads pre-slot world state and writes one record. Link
// PRRs come stashed in the intent group (admitIntent recorded them), so no
// adjacency lookup happens here.
func (e *engine) decideReceiver(i int, t int64) {
	cfg := &e.cfg
	r := e.rxList[i]
	txs := e.groupTxs(i)
	rec := rxRecord{deliverIdx: -1}
	switch {
	case e.inj != nil && e.inj.Jammed(t, r):
		rec.kind = rxJam
	case e.w.transmitting[r]:
		rec.kind = rxBusy
	case len(txs) > 1 && cfg.Protocol.CollisionsApply():
		rec.kind = rxCollision
		if cfg.CaptureProb > 0 {
			rng := e.slotStream.SubValue(uint64(r) * 2)
			if rng.Bool(cfg.CaptureProb) {
				best := 0
				for j := 1; j < len(txs); j++ {
					if e.scaledPRR(&txs[j], t) > e.scaledPRR(&txs[best], t) {
						best = j
					}
				}
				if rng.Bool(e.scaledPRR(&txs[best], t)) {
					rec.kind = rxCapture
					rec.deliverIdx = int32(best)
				}
			}
		}
	default:
		rec.kind = rxSeq
		rng := e.slotStream.SubValue(uint64(r) * 2)
		for j := range txs {
			if rng.Bool(e.scaledPRR(&txs[j], t)) {
				rec.deliverIdx = int32(j)
				break
			}
		}
	}
	e.rxRec[i] = rec
}

// decideOverhear decides which of this slot's successful senders (an
// index into successes, -1 for none) claimed candidate node o decodes.
// Draws come from the node's keyed stream; candidates walk their own
// neighbor row in ascending id order and the first decode wins, matching
// the serial rule that a node receives at most once per slot. The result
// is a pure function of (seed, slot, o) — independent of which chunk
// claimed o. Nodes outside the candidate set would never have reached a
// draw — they have no successful-sender neighbor — so restricting the
// scan to candidates changes no outcome.
func (e *engine) decideOverhear(o int, t int64) int32 {
	w := e.w
	if e.inj != nil && e.inj.Jammed(t, o) {
		return -1
	}
	row, prrs := e.csr.Row(o)
	rng := e.slotStream.SubValue(uint64(o)*2 + 1)
	for j, nb := range row {
		si := e.senderSuccess[nb]
		if si < 0 {
			continue
		}
		p := prrs[j]
		if e.inj != nil {
			p *= e.inj.LinkScale(t, int(nb), o)
		}
		if p <= 0 || w.Has(e.successes[si].packet, o) {
			continue
		}
		if rng.Bool(p) {
			return si
		}
	}
	return -1
}
