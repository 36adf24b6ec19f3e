package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"ldcflood/internal/fault"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/topology"
)

// ErrInterrupted is wrapped by the error Run returns when a
// Config.Interrupt hook aborts the run; test for it with errors.Is. The
// batch runner (internal/runner) relies on it to distinguish an imposed
// timeout or cancellation from an engine failure.
var ErrInterrupted = errors.New("sim: run interrupted")

// coverTarget returns the node count that defines packet completion,
// ⌈coverage·n⌉ clamped to [1, n].
func coverTarget(coverage float64, n int) int {
	c := int(math.Ceil(coverage * float64(n)))
	if c < 1 {
		c = 1
	}
	if c > n {
		c = n
	}
	return c
}

// success records one decoded unicast of the current slot; overhearing
// fans out from successful senders after all receptions resolve.
type success struct{ from, to, packet int }

// groupedTx is one surviving intent grouped under its receiver, with the
// static link PRR stashed at admission time so the decision paths (serial
// and sharded alike) never repeat the adjacency lookup — at 100k nodes
// that lookup is a CSR binary search per draw.
type groupedTx struct {
	in  Intent
	prr float64
}

// engine bundles one run's mutable state: configuration, world, result
// accumulators, RNG streams, and the per-slot scratch buffers shared by
// the slot-by-slot and compact-time execution paths. All scratch is
// allocated once at setup so both slot loops run allocation-free in the
// steady state.
type engine struct {
	cfg        Config
	w          *World
	res        *Result
	scheds     []*schedule.Schedule
	lossRNG    *rngutil.Stream
	syncRNG    *rngutil.Stream
	n          int
	interval   int
	coverNodes int
	maxSlots   int64
	covered    int

	// linkPRR is the graph's shared dense n×n PRR matrix (0 for absent
	// links, see Graph.DensePRR) giving the hot loop O(1) link checks
	// instead of adjacency scans; nil when n exceeds maxDensePRRNodes,
	// falling back to CSR lookups. Read-only.
	linkPRR []float64
	// csr is the graph's flat adjacency view (the World's): link lookups
	// when linkPRR is nil, and the sharded overhearing phase's neighbor
	// rows. Shared, read-only.
	csr *topology.CSR

	// Sharded execution mode (Config.Workers >= 1). shardRoot seeds the
	// per-slot stream tree; slotStream is re-derived serially at the top of
	// every sharded slot and only read by workers. See shard.go.
	workers    int
	pool       *shardPool
	shardRoot  *rngutil.Stream
	slotStream rngutil.Stream

	// Fault injection (nil/empty when Config.Faults is unset, in which
	// case every hook below is a single nil or length check in the hot
	// loop). events is the compiled churn timeline, consumed in slot order
	// through eventCursor; crashed marks nodes that are currently down.
	inj         *fault.Injector
	events      []fault.Event
	eventCursor int
	crashed     []bool

	// tel is the resolved telemetry instrument set, nil when
	// Config.Telemetry is unset — in which case every telemetry site in the
	// slot loops is one predictable nil-check branch (see telemetry.go).
	tel *simTel

	// Per-slot scratch, reused across slots. rxIntents[r] collects the
	// surviving intents targeting receiver r (replacing the former
	// per-slot map churn); rxList is the receivers touched this slot.
	rxIntents   [][]groupedTx
	rxList      []int
	successes   []success
	targeted    []bool
	recvNow     []bool
	txTouched   []int // nodes whose transmitting flag was set this slot
	recvTouched []int // nodes whose recvNow flag was set this slot

	// Sharded-mode scratch: rxRec[i] is the decision record for rxList[i],
	// and senderSuccess maps a sender to its index in successes (-1
	// otherwise), reset sparsely after every slot. ohRows/ohOff hold the
	// slot's successful-sender neighbor rows and their prefix-sum offsets
	// (the overhear batch's concatenated index space); ohSeen is the
	// atomic claim flag ensuring each candidate node is decided once;
	// ohHits the per-chunk hit/claim arenas the merge concatenates and
	// resets. Workers write disjoint indices except the CAS claims.
	rxRec         []rxRecord
	senderSuccess []int32
	ohRows        [][]int32
	ohOff         []int32
	ohSeen        []atomic.Bool
	ohHits        []ohChunk
	ohAll         []ohHit

	// Planner-mode scratch (e.planner != nil): the slot's protocol stream
	// root, per-worker candidate arenas, the per-awake-index plan slices,
	// the compacted SlotPlan, the selected transmissions awaiting
	// admission, and the pre-bound emit closure (bound once so the hot
	// loop allocates nothing). rxFlat/rxOff replace rxIntents on this
	// path: SelectIntents emits receiver groups contiguously in ascending
	// order, so admitted survivors land in one flat arena with rxOff[i]
	// marking where rxList[i]'s group starts — sequential appends and
	// sequential group reads instead of a random-access bucket per
	// receiver.
	planner    ShardPlanner
	protoSlot  rngutil.Stream
	planArenas []planArena
	rxPlan     [][]Candidate
	planIdx    []idxChunk
	plan       SlotPlan
	planned    []groupedTx
	rxFlat     []groupedTx
	rxOff      []int32
	emitFn     func(in Intent, prr float64)

	// Deterministic sharded-path accounting drained into telemetry:
	// planned candidates, receiver groups merged in phase D, and overhear
	// candidates decided in phase E.
	statPlanCands int64
	statMergeRecv int64
	statOhCands   int64
	// statAwakeEntries counts the calendar entries the slot path visits
	// (crashed nodes included): its exact awake-set work.
	statAwakeEntries int64
}

// emitPlanned is the planner's emit callback: it stages a selected
// transmission (with its stashed link PRR) for admission.
func (e *engine) emitPlanned(in Intent, prr float64) {
	e.planned = append(e.planned, groupedTx{in: in, prr: prr})
}

// Run executes one simulation until every packet reaches the coverage
// target or the slot horizon expires. Runs are bit-for-bit reproducible for
// a given Config (including Seed), and — for the protocols in
// internal/flood — independent of Config.CompactTime.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	interval := cfg.InjectInterval
	if interval == 0 {
		interval = 1
	}
	coverage := cfg.Coverage
	if coverage == 0 {
		coverage = 0.99
	}
	n := cfg.Graph.N()
	coverNodes := coverTarget(coverage, n)
	maxPeriod := 1
	for _, s := range cfg.Schedules {
		if s.Period() > maxPeriod {
			maxPeriod = s.Period()
		}
	}
	maxSlots := cfg.MaxSlots
	if maxSlots <= 0 {
		// Worst case ~ M injections, each needing O(diameter) hops at
		// O(period / PRR) slots per hop; pad generously.
		// The product saturates rather than overflowing for huge periods.
		perPeriod := int64(cfg.M+n+100) * 40
		maxSlots = math.MaxInt64
		if int64(maxPeriod) <= math.MaxInt64/perPeriod {
			maxSlots = int64(maxPeriod) * perPeriod
		}
	}

	root := rngutil.New(cfg.Seed)

	// The engine owns a copy of the schedule table so an Adapt hook can
	// swap entries without mutating the caller's slice.
	scheds := append([]*schedule.Schedule(nil), cfg.Schedules...)
	pwords := (cfg.M + 63) / 64
	w := &World{
		Graph:          cfg.Graph,
		Schedules:      scheds,
		M:              cfg.M,
		InjectInterval: interval,
		ProtoRNG:       root.SubName("protocol"),
		has:            make([]uint64, n*pwords),
		pwords:         pwords,
		heldCount:      make([]int, n),
		recvTime:       make([]int64, n*cfg.M),
		count:          make([]int, cfg.M),
		csr:            cfg.Graph.CSR(),
		nbrHold:        make([]int32, n*cfg.M),
		lastRecv:       make([]int64, n),
		awake:          make([]bool, n),
		transmitting:   make([]bool, n),
	}
	for i := range w.recvTime {
		w.recvTime[i] = -1
	}
	for i := range w.lastRecv {
		w.lastRecv[i] = -1
	}

	res := &Result{
		Protocol:          cfg.Protocol.Name(),
		M:                 cfg.M,
		CoverNodes:        coverNodes,
		InjectTime:        make([]int64, cfg.M),
		CoverTime:         make([]int64, cfg.M),
		Delay:             make([]int64, cfg.M),
		FirstHopDelay:     make([]int64, cfg.M),
		TxPerNode:         make([]int, n),
		AwakeSlotsPerNode: make([]int64, n),
	}
	for p := 0; p < cfg.M; p++ {
		res.InjectTime[p] = -1
		res.CoverTime[p] = -1
		res.Delay[p] = -1
		res.FirstHopDelay[p] = -1
	}

	cfg.Protocol.Reset(w)

	e := &engine{
		cfg:        cfg,
		w:          w,
		res:        res,
		scheds:     scheds,
		lossRNG:    root.SubName("loss"),
		syncRNG:    root.SubName("sync"),
		n:          n,
		interval:   interval,
		coverNodes: coverNodes,
		maxSlots:   maxSlots,
		targeted:   make([]bool, n),
		recvNow:    make([]bool, n),
		crashed:    make([]bool, n),
		csr:        w.csr,
	}
	if cfg.Faults != nil {
		// The fault stream is derived from (not drawn from) the root, so
		// attaching a schedule leaves the loss/sync/protocol streams — and
		// therefore any unfaulted behavior — untouched.
		e.inj = cfg.Faults.Compile(cfg.Graph, root.SubName("fault"))
		e.events = e.inj.Events()
	}
	if n <= maxDensePRRNodes {
		e.linkPRR = cfg.Graph.DensePRR()
	}
	if cfg.Workers > 0 {
		e.workers = cfg.Workers
		e.shardRoot = root.SubName("shard")
		e.senderSuccess = make([]int32, n)
		for i := range e.senderSuccess {
			e.senderSuccess[i] = -1
		}
		e.ohSeen = make([]atomic.Bool, n)
		if sp, ok := cfg.Protocol.(ShardPlanner); ok {
			e.planner = sp
			e.planArenas = make([]planArena, e.workers)
			e.emitFn = e.emitPlanned
		}
		e.pool = newShardPool(e.workers, cfg.ShardStats)
		defer e.pool.close()
	}
	if e.planner == nil {
		// The flat rxFlat/rxOff arena replaces the per-receiver buckets on
		// the planner path; every other path groups through rxIntents.
		e.rxIntents = make([][]groupedTx, n)
	}

	plan := e.planCompact()
	if cfg.Telemetry != nil {
		e.tel = newSimTel(cfg.Telemetry, plan != nil, e.workers)
	}
	var runErr error
	if plan != nil {
		runErr = e.runCompact(plan)
	} else {
		runErr = e.runSlots()
	}
	if runErr != nil {
		return nil, runErr
	}
	if e.tel != nil {
		e.tel.finish(e, cfg.Telemetry)
	}

	res.Completed = e.covered == cfg.M
	if cfg.RecordReceptions {
		res.NodeRecvTime = make([][]int64, cfg.M)
		for p := range res.NodeRecvTime {
			row := make([]int64, n)
			for node := range row {
				row[node] = w.recvTime[node*cfg.M+p]
			}
			res.NodeRecvTime[p] = row
		}
	}
	return res, nil
}

// maxDensePRRNodes caps the engine's dense link-PRR matrix at n² float64s
// (8 MB at the cap); larger graphs use CSR binary-search lookups, keeping
// the engine's memory O(n+m). A variable so white-box tests can force the
// sparse regime on small graphs.
var maxDensePRRNodes = 1024

// prr returns the link PRR of (u, v), or 0 when unlinked — Graph.PRR
// semantics through the dense matrix when available, the CSR otherwise.
func (e *engine) prr(u, v int) float64 {
	if e.linkPRR != nil {
		return e.linkPRR[u*e.n+v]
	}
	return e.csr.PRROf(u, v)
}

// effPRR returns the PRR of link (u, v) at the current slot, after any
// fault-schedule degradation. Without a schedule it is exactly prr.
func (e *engine) effPRR(u, v int) float64 {
	p := e.prr(u, v)
	if e.inj != nil && p > 0 {
		p *= e.inj.LinkScale(e.w.now, u, v)
	}
	return p
}

// applyFaults applies every compiled churn event due at or before slot t:
// a crash drops the node's buffered packets and forces it dormant until
// its reboot event (if any) brings it back.
func (e *engine) applyFaults(t int64) {
	for e.eventCursor < len(e.events) && e.events[e.eventCursor].At <= t {
		ev := e.events[e.eventCursor]
		e.eventCursor++
		if ev.Up {
			e.crashed[ev.Node] = false
			e.res.Reboots++
		} else {
			e.crashed[ev.Node] = true
			e.res.Crashes++
			e.res.CrashDropped += e.w.dropAll(ev.Node)
		}
	}
}

// planCompact decides whether the compact-time fast path applies and, if
// so, builds its precomputed schedule structure. A nil return selects the
// slot-by-slot path.
func (e *engine) planCompact() *compactPlan {
	if !e.cfg.CompactTime || e.cfg.Adapt != nil {
		return nil
	}
	// Dynamic fault schedules (churn, jams, moving link chains) mutate the
	// world mid-run in ways the hyperperiod plan cannot see; fall back to
	// the reference path. Static schedules are a pure per-link PRR scaling
	// and keep the fast path.
	if e.inj != nil && !e.inj.Static() {
		return nil
	}
	return newCompactPlan(e.cfg.Graph, e.scheds)
}

// interruptErr wraps ErrInterrupted with run context.
func (e *engine) interruptErr(t int64) error {
	return fmt.Errorf("sim: %s aborted at slot %d: %w",
		e.cfg.Protocol.Name(), t, ErrInterrupted)
}

// inject admits every packet whose injection time is slot t: packet p
// enters at slot p×interval at the source (node 0).
func (e *engine) inject(t int64) {
	for e.w.injected < e.cfg.M && t == int64(e.w.injected)*int64(e.interval) {
		p := e.w.injected
		e.w.injected++
		e.w.deliver(p, 0, t)
		e.res.InjectTime[p] = t
		if e.cfg.Observer != nil {
			e.cfg.Observer.OnInject(t, p)
		}
	}
}

// runSlots is the reference execution path: iterate every wall-clock slot.
// It supports every Config feature, including Adapt. The awake set comes
// from a sparse calendar of the schedules' active offsets (calendar.go), so
// each slot costs O(awake) whatever the periods; an Adapt call that swaps
// any schedule rebuilds the calendar at the current slot.
func (e *engine) runSlots() error {
	w, res, cfg := e.w, e.res, &e.cfg
	cal := newCalendar(e.scheds, 0)
	var calScheds []*schedule.Schedule // the table cal indexes, for Adapt
	if cfg.Adapt != nil {
		calScheds = slices.Clone(e.scheds)
	}
	// Without a fault injector no node can crash, and without Adapt the
	// schedules are static, so the per-node awake tally is a pure function
	// of the schedules and the horizon — computed arithmetically after the
	// loop (exactly as runCompact does) instead of incrementing per awake
	// node per slot.
	countAwake := e.inj != nil || cfg.Adapt != nil
	for t := int64(0); t < e.maxSlots && e.covered < cfg.M; t++ {
		if cfg.Interrupt != nil && cfg.Interrupt(t) {
			return e.interruptErr(t)
		}
		w.now = t
		e.applyFaults(t)
		e.inject(t)
		// Dynamic duty-cycle control (DutyCon-style, reference [22]).
		if cfg.Adapt != nil && t > 0 && t%cfg.AdaptEvery == 0 {
			cfg.Adapt(w, e.scheds)
			for i, s := range e.scheds {
				if s == nil {
					return fmt.Errorf("sim: Adapt set a nil schedule for node %d", i)
				}
			}
			if !slices.Equal(calScheds, e.scheds) {
				copy(calScheds, e.scheds)
				cal = newCalendar(e.scheds, t)
			}
		}
		// Awake set. Crashed nodes stay dormant regardless of schedule.
		for _, i := range w.awakeList {
			w.awake[i] = false
		}
		w.awakeList = w.awakeList[:0]
		entries := cal.awake(t)
		e.statAwakeEntries += int64(len(entries))
		for _, i := range entries {
			if e.crashed[i] {
				continue
			}
			w.awake[i] = true
			w.awakeList = append(w.awakeList, int(i))
			if countAwake {
				res.AwakeSlotsPerNode[i]++
			}
		}
		if err := e.resolve(t); err != nil {
			return err
		}
		res.TotalSlots = t + 1
		if e.tel != nil {
			e.tel.tick(e)
		}
	}
	if !countAwake {
		for i := 0; i < e.n; i++ {
			res.AwakeSlotsPerNode[i] = e.scheds[i].ActiveCountBefore(res.TotalSlots)
		}
	}
	return nil
}

// runCompact is the compact-time fast path: the awake set comes from
// precomputed hyperperiod offset buckets, and the loop steps directly from
// one relevant slot to the next. Dormant-only stretches contribute to
// TotalSlots and AwakeSlotsPerNode arithmetically. Preconditions
// (CompactTime set, Adapt nil, bounded hyperperiod) are enforced by
// planCompact.
func (e *engine) runCompact(plan *compactPlan) error {
	w, res, cfg := e.w, e.res, &e.cfg
	fs := newFastState(e, plan)
	w.onDeliver = fs.noteDeliver
	defer func() { w.onDeliver = nil }()

	L := int64(plan.L)
	for t := int64(0); t < e.maxSlots && e.covered < cfg.M; {
		if cfg.Interrupt != nil && cfg.Interrupt(t) {
			return e.interruptErr(t)
		}
		w.now = t
		before := w.injected
		e.inject(t)
		if w.injected != before {
			fs.noteInjection()
		}
		// Awake set from the precomputed offset buckets: clear the
		// previous slot's entries, then install this offset's bucket.
		for _, i := range w.awakeList {
			w.awake[i] = false
		}
		w.awakeList = w.awakeList[:0]
		for _, i := range plan.buckets[t%L] {
			w.awake[i] = true
			w.awakeList = append(w.awakeList, int(i))
		}
		if err := e.resolve(t); err != nil {
			return err
		}
		res.TotalSlots = t + 1
		if e.tel != nil {
			e.tel.tick(e)
		}
		t = fs.nextRelevant(t + 1)
	}
	if e.covered < cfg.M {
		// The reference path iterates (and counts) every slot up to the
		// horizon even when nothing can happen; account for the skipped
		// tail.
		res.TotalSlots = e.maxSlots
	}
	// Awake-slot bookkeeping over [0, TotalSlots), computed arithmetically
	// from the (static — Adapt is nil here) schedules.
	for i := 0; i < e.n; i++ {
		res.AwakeSlotsPerNode[i] = e.scheds[i].ActiveCountBefore(res.TotalSlots)
	}
	return nil
}

// resolve runs one slot's protocol round on the path selected by
// Config.Workers: the historical serial resolution (Workers == 0) or the
// sharded discipline (see shard.go). The caller must have set w.now and the
// awake set.
func (e *engine) resolve(t int64) error {
	if e.workers > 0 {
		return e.resolveSlotSharded(t)
	}
	return e.resolveSlot(t)
}

// collectIntents asks the protocol for this slot's transmissions and
// admits them. Shared verbatim by both resolution paths, so the
// protocol-facing semantics — including the syncRNG consumption order —
// are identical under every worker count.
func (e *engine) collectIntents(t int64) error {
	intents := e.cfg.Protocol.Intents(e.w)
	e.rxList = e.rxList[:0]
	for _, in := range intents {
		if err := e.admitIntent(in, -1, t); err != nil {
			return err
		}
	}
	slices.Sort(e.rxList)
	return nil
}

// admitIntent validates one intent, enforces one transmission per sender,
// applies the synchronization-miss draw, and groups the survivor under its
// receiver with its link PRR stashed.
func (e *engine) admitIntent(in Intent, prr float64, t int64) error {
	prr, ok, err := e.vetIntent(in, prr, t)
	if err != nil || !ok {
		return err
	}
	if len(e.rxIntents[in.To]) == 0 {
		e.rxList = append(e.rxList, in.To)
	}
	e.rxIntents[in.To] = append(e.rxIntents[in.To], groupedTx{in: in, prr: prr})
	return nil
}

// vetIntent is admission without the grouping: validation, the
// one-transmission-per-sender rule, and the synchronization-miss draw.
// It returns the resolved link PRR and whether the intent survives to a
// receiver group. A negative prr means unknown — look it up;
// planner-emitted intents pass the PRR stashed at plan time, which keeps
// the CSR binary search off the sharded path's serial spine (links
// always have PRR > 0, so the link-existence check is the same either way).
func (e *engine) vetIntent(in Intent, prr float64, t int64) (float64, bool, error) {
	w, res, cfg := e.w, e.res, &e.cfg
	if in.From < 0 || in.From >= e.n || in.To < 0 || in.To >= e.n || in.From == in.To {
		return 0, false, fmt.Errorf("sim: protocol %s produced invalid intent %+v", cfg.Protocol.Name(), in)
	}
	if in.Packet < 0 || in.Packet >= w.injected {
		return 0, false, fmt.Errorf("sim: intent for uninjected packet %d", in.Packet)
	}
	if !w.Has(in.Packet, in.From) {
		return 0, false, fmt.Errorf("sim: node %d does not hold packet %d", in.From, in.Packet)
	}
	if prr < 0 {
		prr = e.prr(in.From, in.To)
	}
	if prr <= 0 {
		return 0, false, fmt.Errorf("sim: intent over non-link %d-%d", in.From, in.To)
	}
	if !w.awake[in.To] {
		return 0, false, fmt.Errorf("sim: intent to dormant node %d", in.To)
	}
	if w.transmitting[in.From] {
		return 0, false, nil // one transmission per sender per slot
	}
	if w.Has(in.Packet, in.To) {
		return 0, false, nil // receiver already has it; drop silently
	}
	w.transmitting[in.From] = true
	e.txTouched = append(e.txTouched, in.From)
	if cfg.SyncErrorProb > 0 && e.syncRNG.Bool(cfg.SyncErrorProb) {
		// Local-synchronization miss: the sender fires at the
		// wrong slot and nobody is listening.
		res.Transmissions++
		res.TxPerNode[in.From]++
		res.SyncFailures++
		if cfg.Observer != nil {
			cfg.Observer.OnTransmit(t, in.From, in.To, in.Packet, TxSync)
		}
		return 0, false, nil
	}
	return prr, true, nil
}

// scaledPRR returns tx's stashed link PRR after any fault-schedule
// degradation at slot t — effPRR without the adjacency lookup.
func (e *engine) scaledPRR(tx *groupedTx, t int64) float64 {
	p := tx.prr
	if e.inj != nil && p > 0 {
		p *= e.inj.LinkScale(t, tx.in.From, tx.in.To)
	}
	return p
}

// resolveSlot is the historical serial slot resolution: collect intents,
// resolve collisions/losses/capture per receiver drawing from the shared
// loss stream in slot order, fan out overhearing, and update coverage
// accounting. Scratch state touched during the slot is cleared before
// returning, so consecutive calls need no O(n) wipes.
func (e *engine) resolveSlot(t int64) error {
	w, res, cfg := e.w, e.res, &e.cfg
	if err := e.collectIntents(t); err != nil {
		return err
	}

	e.successes = e.successes[:0]
	for _, r := range e.rxList {
		txs := e.rxIntents[r]
		res.Transmissions += len(txs)
		for _, tx := range txs {
			res.TxPerNode[tx.in.From]++
		}
		e.targeted[r] = true
		switch {
		case e.inj != nil && e.inj.Jammed(t, r):
			// Receiver-side jamming: every reception at a jammed node fails
			// deterministically, without consuming a loss-RNG draw.
			res.JamFailures += len(txs)
			if cfg.Observer != nil {
				for _, tx := range txs {
					cfg.Observer.OnTransmit(t, tx.in.From, r, tx.in.Packet, TxJammed)
				}
			}
		case w.transmitting[r]:
			// Semi-duplex: a transmitting node cannot receive.
			res.BusyFailures += len(txs)
			if cfg.Observer != nil {
				for _, tx := range txs {
					cfg.Observer.OnTransmit(t, tx.in.From, r, tx.in.Packet, TxBusy)
				}
			}
		case len(txs) > 1 && cfg.Protocol.CollisionsApply():
			// Capture effect: the strongest signal may survive the
			// collision (reference [17]'s flash-flooding mechanism).
			captured := false
			if cfg.CaptureProb > 0 && e.lossRNG.Bool(cfg.CaptureProb) {
				best := 0
				for j := 1; j < len(txs); j++ {
					if e.scaledPRR(&txs[j], t) > e.scaledPRR(&txs[best], t) {
						best = j
					}
				}
				if e.lossRNG.Bool(e.scaledPRR(&txs[best], t)) {
					captured = true
					res.Captures++
					bestTx := txs[best]
					e.deliverNow(bestTx.in.Packet, r, t)
					e.successes = append(e.successes, success{bestTx.in.From, r, bestTx.in.Packet})
					res.CollisionFailures += len(txs) - 1
					if cfg.Observer != nil {
						for j, tx := range txs {
							outcome := TxCollision
							if j == best {
								outcome = TxSuccess
							}
							cfg.Observer.OnTransmit(t, tx.in.From, r, tx.in.Packet, outcome)
						}
					}
				}
			}
			if !captured {
				res.CollisionFailures += len(txs)
				if cfg.Observer != nil {
					for _, tx := range txs {
						cfg.Observer.OnTransmit(t, tx.in.From, r, tx.in.Packet, TxCollision)
					}
				}
			}
		default:
			// Attempt in order until one succeeds; the rest of an
			// oracle's redundant transmissions are counted as losses.
			got := false
			for j := range txs {
				tx := &txs[j]
				if got {
					res.LossFailures++
					if cfg.Observer != nil {
						cfg.Observer.OnTransmit(t, tx.in.From, r, tx.in.Packet, TxRedundant)
					}
					continue
				}
				if e.lossRNG.Bool(e.scaledPRR(tx, t)) {
					got = true
					e.deliverNow(tx.in.Packet, r, t)
					e.successes = append(e.successes, success{tx.in.From, r, tx.in.Packet})
					if cfg.Observer != nil {
						cfg.Observer.OnTransmit(t, tx.in.From, r, tx.in.Packet, TxSuccess)
					}
				} else {
					res.LossFailures++
					if cfg.Observer != nil {
						cfg.Observer.OnTransmit(t, tx.in.From, r, tx.in.Packet, TxLoss)
					}
				}
			}
		}
	}
	// Overhearing: awake, silent, non-targeted neighbors of successful
	// senders may pick the packet up for free. Candidates are visited in
	// ascending node id; iterating the (small) awake list and testing
	// adjacency is much cheaper than scanning the sender's full neighbor
	// list when only a few nodes are awake. The sender itself is excluded
	// by the transmitting check.
	if cfg.Protocol.Overhears() {
		for _, s := range e.successes {
			for _, o := range w.awakeList {
				if o == s.to || w.transmitting[o] || e.targeted[o] || e.recvNow[o] {
					continue
				}
				if e.inj != nil && e.inj.Jammed(t, o) {
					continue // jammed nodes cannot overhear
				}
				prr := e.effPRR(s.from, o)
				if prr <= 0 || w.Has(s.packet, o) {
					continue
				}
				if e.lossRNG.Bool(prr) {
					e.deliverNow(s.packet, o, t)
					res.Overheard++
					if cfg.Observer != nil {
						cfg.Observer.OnOverhear(t, s.from, o, s.packet)
					}
				}
			}
		}
	}
	e.accountCoverage(t)
	e.cleanupSlot()
	return nil
}

// accountCoverage latches per-packet coverage and first-hop milestones
// reached by this slot's deliveries.
func (e *engine) accountCoverage(t int64) {
	w, res, cfg := e.w, e.res, &e.cfg
	for p := 0; p < w.injected; p++ {
		if res.CoverTime[p] == -1 && w.count[p] >= e.coverNodes {
			res.CoverTime[p] = t
			res.Delay[p] = t - res.InjectTime[p]
			e.covered++
			if cfg.Observer != nil {
				cfg.Observer.OnCovered(t, p)
			}
		}
		if res.FirstHopDelay[p] == -1 && w.count[p] >= 2 {
			res.FirstHopDelay[p] = t - res.InjectTime[p]
		}
	}
}

// groupTxs returns receiver rxList[i]'s intent group: a slice of the
// planner path's flat arena, or the rxIntents bucket everywhere else.
func (e *engine) groupTxs(i int) []groupedTx {
	if e.planner != nil {
		return e.rxFlat[e.rxOff[i]:e.rxOff[i+1]]
	}
	return e.rxIntents[e.rxList[i]]
}

// cleanupSlot resets exactly the scratch entries this slot touched, so
// consecutive slots need no O(n) wipes. The planner path never populates
// rxIntents (its groups live in the flat arena, truncated wholesale each
// slot), so only the targeted marks need the per-receiver walk there.
func (e *engine) cleanupSlot() {
	w := e.w
	if e.planner != nil {
		for _, r := range e.rxList {
			e.targeted[r] = false
		}
	} else {
		for _, r := range e.rxList {
			e.targeted[r] = false
			e.rxIntents[r] = e.rxIntents[r][:0]
		}
	}
	for _, i := range e.txTouched {
		w.transmitting[i] = false
	}
	e.txTouched = e.txTouched[:0]
	for _, i := range e.recvTouched {
		e.recvNow[i] = false
	}
	e.recvTouched = e.recvTouched[:0]
}

// deliverNow records an in-slot reception: the packet is delivered and the
// node is marked as having received this slot (blocking overhearing).
func (e *engine) deliverNow(p, node int, t int64) {
	e.w.deliver(p, node, t)
	if !e.recvNow[node] {
		e.recvNow[node] = true
		e.recvTouched = append(e.recvTouched, node)
	}
}
