// Package sim is the slotted discrete-event simulator implementing the
// network model of Section III: periodic working schedules, semi-duplex
// radios, unreliable links with Bernoulli loss, FCFS packet queues, and
// flooding realized as a series of unicasts. Flooding protocols (package
// flood) plug in through the Protocol interface; the engine owns slot
// mechanics, collision and loss resolution, overhearing, and metrics.
package sim

import (
	"fmt"
	"math"
	"math/bits"

	"ldcflood/internal/fault"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/telemetry"
	"ldcflood/internal/topology"
)

// World is the simulation state visible to protocols. Protocols must treat
// it as read-only except through their returned intents.
type World struct {
	Graph     *topology.Graph
	Schedules []*schedule.Schedule
	// M is the total number of packets the source will inject.
	M int
	// InjectInterval is the number of slots between injections.
	InjectInterval int
	// ProtoRNG is a dedicated random stream for protocol-internal decisions
	// (e.g. OF's probabilistic forwarding), split from the run seed.
	ProtoRNG *rngutil.Stream

	// has is the node-major possession bitset: bit p%64 of word
	// has[node*pwords + p/64] is set when node holds packet p. The layout
	// makes OldestNeeded a handful of word operations per packet word
	// instead of a per-packet bool walk.
	has       []uint64
	pwords    int     // uint64 words per node in has: ceil(M/64)
	heldCount []int   // heldCount[node]: packets node currently holds
	recvTime  []int64 // recvTime[node*M+p]; -1 if not received (node-major so OldestNeeded scans contiguously)
	count     []int   // count[p]: nodes currently holding p
	injected  int     // packets injected so far
	now       int64

	// Incremental summaries for the timer protocols, maintained only by
	// deliver and dropAll (the sole possession mutations, which run in
	// serial phases), so concurrent PlanReceiver calls read them
	// race-free. csr is the graph's shared adjacency view the updates walk.
	csr      *topology.CSR
	nbrHold  []int32 // nbrHold[node*M+p]: node's neighbors currently holding p
	lastRecv []int64 // lastRecv[node]: latest reception slot among held packets; -1 if none

	awake        []bool
	awakeList    []int
	transmitting []bool

	// onDeliver, when non-nil, observes every successful delivery
	// (injection, unicast or overheard). The compact-time fast path hooks
	// it to maintain its relevant-slot bookkeeping incrementally.
	onDeliver func(p, node int)
}

// Now returns the current slot.
func (w *World) Now() int64 { return w.now }

// Injected returns how many packets have been injected so far.
func (w *World) Injected() int { return w.injected }

// InjectSlot returns the slot at which packet p is (or will be) injected.
func (w *World) InjectSlot(p int) int64 { return int64(p) * int64(w.InjectInterval) }

// Has reports whether node holds packet p.
func (w *World) Has(p, node int) bool {
	return w.has[node*w.pwords+p>>6]&(1<<(uint(p)&63)) != 0
}

// RecvTime returns the slot at which node received packet p, or -1.
func (w *World) RecvTime(p, node int) int64 { return w.recvTime[node*w.M+p] }

// Held returns node's possession words: bit p%64 of word p/64 is set when
// node holds packet p. The slice aliases engine state; do not modify or
// retain it.
func (w *World) Held(node int) []uint64 { return w.has[node*w.pwords : (node+1)*w.pwords] }

// NeighborHolders returns how many of node's neighbors currently hold
// packet p — an O(1) read of a count the engine maintains per delivery.
func (w *World) NeighborHolders(p, node int) int { return int(w.nbrHold[node*w.M+p]) }

// LastReception returns the latest slot at which node received a packet it
// still holds (injection included), or -1 when it holds nothing.
func (w *World) LastReception(node int) int64 { return w.lastRecv[node] }

// Count returns the number of nodes currently holding packet p.
func (w *World) Count(p int) int { return w.count[p] }

// IsAwake reports whether node is in its active slot right now.
func (w *World) IsAwake(node int) bool { return w.awake[node] }

// AwakeList returns the nodes awake this slot, ascending. The slice is
// owned by the engine; do not modify or retain it.
func (w *World) AwakeList() []int { return w.awakeList }

// IsTransmitting reports whether node has already been assigned a
// transmission this slot.
func (w *World) IsTransmitting(node int) bool { return w.transmitting[node] }

// NeedsAnything reports whether node is missing any injected packet.
func (w *World) NeedsAnything(node int) bool {
	return w.heldCount[node] < w.injected
}

// OldestNeeded returns the packet that sender should forward to receiver
// under the FCFS relay policy: among the injected packets sender holds and
// receiver lacks, the one sender received earliest (ties to the smaller
// packet index). It returns -1 if there is no such packet.
func (w *World) OldestNeeded(sender, receiver int) int {
	sb := w.has[sender*w.pwords : (sender+1)*w.pwords]
	rb := w.has[receiver*w.pwords : (receiver+1)*w.pwords]
	rts := w.recvTime[sender*w.M : (sender+1)*w.M]
	best := -1
	var bestTime int64 = math.MaxInt64
	for i, sw := range sb {
		need := sw &^ rb[i]
		for need != 0 {
			p := i<<6 + bits.TrailingZeros64(need)
			need &= need - 1
			if rt := rts[p]; rt < bestTime {
				best, bestTime = p, rt
			}
		}
	}
	return best
}

// AnyNeeded reports whether sender holds at least one packet receiver
// lacks — equivalent to OldestNeeded(sender, receiver) >= 0 but without
// finding the FCFS minimum, a handful of word operations. Protocols use it
// as the cheap candidate-admission test, deferring the OldestNeeded scan to
// the senders that actually fire; the compact-time fast path uses it to
// track which nodes can still receive something.
func (w *World) AnyNeeded(sender, receiver int) bool {
	if w.pwords == 1 {
		return w.has[sender]&^w.has[receiver] != 0
	}
	sb := w.has[sender*w.pwords : (sender+1)*w.pwords]
	rb := w.has[receiver*w.pwords : (receiver+1)*w.pwords]
	for i, sw := range sb {
		if sw&^rb[i] != 0 {
			return true
		}
	}
	return false
}

// dropAll clears node's entire packet buffer — the engine applies it when
// a fault-schedule crash takes effect. Possession bits, reception times,
// the per-packet holder counts and the neighbor-holder and last-reception
// summaries are rolled back; latched Result fields (CoverTime, Delay) are
// deliberately untouched, so coverage remains monotone per packet. It
// returns the number of packet copies dropped.
func (w *World) dropAll(node int) int {
	dropped := 0
	row, _ := w.csr.Row(node)
	words := w.has[node*w.pwords : (node+1)*w.pwords]
	for i, word := range words {
		for word != 0 {
			p := i<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			w.count[p]--
			w.recvTime[node*w.M+p] = -1
			for _, u := range row {
				w.nbrHold[int(u)*w.M+p]--
			}
			dropped++
		}
		words[i] = 0
	}
	w.heldCount[node] = 0
	w.lastRecv[node] = -1
	return dropped
}

// deliver records that node received packet p at slot t, reporting false
// if it already held p. Slots never decrease across calls, so t is also
// node's new last-reception slot.
func (w *World) deliver(p, node int, t int64) bool {
	if w.Has(p, node) {
		return false
	}
	w.has[node*w.pwords+p>>6] |= 1 << (uint(p) & 63)
	w.recvTime[node*w.M+p] = t
	w.count[p]++
	w.heldCount[node]++
	w.lastRecv[node] = t
	row, _ := w.csr.Row(node)
	for _, u := range row {
		w.nbrHold[int(u)*w.M+p]++
	}
	if w.onDeliver != nil {
		w.onDeliver(p, node)
	}
	return true
}

// Intent is a protocol's request that From unicast Packet to To this slot.
type Intent struct {
	From, To, Packet int
}

// Protocol is a flooding strategy plugged into the engine.
type Protocol interface {
	// Name identifies the protocol in results ("OPT", "DBAO", "OF", ...).
	Name() string
	// Reset prepares protocol state for a fresh run over the given world.
	Reset(w *World)
	// Intents returns this slot's transmission requests. The engine
	// validates them (sender holds the packet, link exists, receiver is
	// awake and lacks the packet) and enforces one transmission per sender.
	Intents(w *World) []Intent
	// CollisionsApply reports whether simultaneous transmissions to one
	// receiver destroy each other. The OPT oracle returns false.
	CollisionsApply() bool
	// Overhears reports whether non-targeted awake neighbors of a
	// successful sender may also receive the packet (DBAO's mechanism).
	Overhears() bool
}

// TxOutcome classifies what happened to one transmission attempt.
type TxOutcome int

// Transmission outcomes reported to an Observer.
const (
	// TxSuccess: the receiver decoded the packet.
	TxSuccess TxOutcome = iota
	// TxLoss: the link dropped the packet (Bernoulli loss).
	TxLoss
	// TxCollision: simultaneous transmissions destroyed each other.
	TxCollision
	// TxBusy: the receiver was itself transmitting (semi-duplex).
	TxBusy
	// TxRedundant: the receiver had already decoded the packet this slot
	// from another (oracle-mode) sender.
	TxRedundant
	// TxSync: the sender mis-estimated the receiver's wake slot (local
	// synchronization error) and transmitted into silence.
	TxSync
	// TxJammed: the receiver sat inside an active jamming region
	// (fault-schedule regional outage) and could not decode anything.
	TxJammed
)

// String implements fmt.Stringer.
func (o TxOutcome) String() string {
	switch o {
	case TxSuccess:
		return "success"
	case TxLoss:
		return "loss"
	case TxCollision:
		return "collision"
	case TxBusy:
		return "busy"
	case TxRedundant:
		return "redundant"
	case TxSync:
		return "sync-miss"
	case TxJammed:
		return "jammed"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Observer receives engine events; attach one via Config.Observer for
// tracing, debugging or custom metrics. Methods are called synchronously
// from the engine loop in deterministic order.
type Observer interface {
	// OnInject fires when the source generates a packet.
	OnInject(t int64, packet int)
	// OnTransmit fires for every transmission attempt with its outcome.
	OnTransmit(t int64, from, to, packet int, outcome TxOutcome)
	// OnOverhear fires when a non-targeted node receives a packet for free.
	OnOverhear(t int64, from, node, packet int)
	// OnCovered fires when a packet reaches the coverage target.
	OnCovered(t int64, packet int)
}

// FuncProtocol adapts plain functions to the Protocol interface, for quick
// experiments and tests that don't warrant a named type. Nil hooks default
// to no-ops (and no intents).
type FuncProtocol struct {
	// ProtocolName is reported by Name (default "func").
	ProtocolName string
	// ResetFunc is called once per run before the first slot.
	ResetFunc func(w *World)
	// IntentsFunc produces the per-slot transmissions.
	IntentsFunc func(w *World) []Intent
	// Collisions and Overhearing configure the engine's resolution rules.
	Collisions  bool
	Overhearing bool
}

// Name implements Protocol.
func (f *FuncProtocol) Name() string {
	if f.ProtocolName == "" {
		return "func"
	}
	return f.ProtocolName
}

// Reset implements Protocol.
func (f *FuncProtocol) Reset(w *World) {
	if f.ResetFunc != nil {
		f.ResetFunc(w)
	}
}

// Intents implements Protocol.
func (f *FuncProtocol) Intents(w *World) []Intent {
	if f.IntentsFunc == nil {
		return nil
	}
	return f.IntentsFunc(w)
}

// CollisionsApply implements Protocol.
func (f *FuncProtocol) CollisionsApply() bool { return f.Collisions }

// Overhears implements Protocol.
func (f *FuncProtocol) Overhears() bool { return f.Overhearing }

var _ Protocol = (*FuncProtocol)(nil)

// Config parameterizes one simulation run.
type Config struct {
	Graph     *topology.Graph
	Schedules []*schedule.Schedule
	Protocol  Protocol
	// M is the number of packets flooded (paper default: 100).
	M int
	// InjectInterval is the slot spacing between injections (default 1).
	InjectInterval int
	// Coverage is the delivery-ratio target defining "flooding delay"
	// (paper: 0.99, excluding the worst-connected sensors).
	Coverage float64
	// MaxSlots caps the run; 0 derives a generous default.
	MaxSlots int64
	// Seed drives all randomness (link loss and protocol decisions).
	Seed uint64
	// Observer, when non-nil, receives every engine event.
	Observer Observer
	// RecordReceptions copies the full per-node reception-time matrix into
	// Result.NodeRecvTime (M×N int64s) for per-node delay-distribution
	// analysis.
	RecordReceptions bool
	// SyncErrorProb models imperfect local synchronization (Section III-B
	// assumes it is perfect): with this probability, a transmission is
	// fired at a mis-estimated wake slot and reaches nobody, wasting the
	// sender's slot. Must be in [0, 1).
	SyncErrorProb float64
	// CaptureProb models the capture effect (Lu & Whitehouse, INFOCOM'09,
	// the paper's reference [17]): when several transmissions collide at a
	// receiver, the strongest one (highest PRR as the signal-strength
	// proxy) is decoded anyway with this probability instead of everything
	// being destroyed. 0 (default) disables capture; must be in [0, 1].
	CaptureProb float64
	// Adapt, when non-nil, is invoked every AdaptEvery slots with the
	// engine's live schedule table; it may replace entries to change
	// nodes' duty cycles mid-run (dynamic duty-cycle control in the style
	// of DutyCon, the paper's reference [22]). Entries must remain
	// non-nil.
	Adapt func(w *World, schedules []*schedule.Schedule)
	// AdaptEvery is the adaptation epoch in slots; required > 0 when Adapt
	// is set.
	AdaptEvery int64
	// Faults, when non-nil, is a deterministic fault-injection schedule
	// (package fault): Gilbert–Elliott bursty link degradation, node
	// crash/reboot churn, and transient jamming outages, all compiled
	// against the run seed's dedicated "fault" RNG stream so attaching a
	// schedule never perturbs the loss/sync/protocol streams — an empty
	// schedule reproduces the unfaulted run bit-for-bit. Dynamic schedules
	// (churn, jams, moving chains) force the slot-by-slot reference path;
	// static link degradation (the paper's k-class loss) keeps the
	// compact-time fast path. See docs/FAULTS.md.
	Faults *fault.Schedule
	// Interrupt, when non-nil, is polled once at the top of every slot.
	// Returning true aborts the run immediately with an error wrapping
	// ErrInterrupted. The hook runs on the engine's hot path and must be
	// cheap; the batch runner (internal/runner) uses it to impose
	// wall-clock timeouts, slot budgets, and context cancellation without
	// leaking a runaway simulation goroutine. Under CompactTime the hook
	// is polled only at the slots the fast path visits, so an interrupt
	// that would have fired during a skipped dormant stretch is delivered
	// at the next visited slot instead.
	Interrupt func(slot int64) bool
	// Telemetry, when non-nil, receives cheap always-on counters from the
	// run: slots visited/skipped, execution-path selection, transmission
	// attempts by outcome, packet injection/coverage progress, and fault
	// events (see docs/OBSERVABILITY.md for the catalog). Counters update
	// live — a slot tick every visited slot, accumulator drains every few
	// thousand slots and at run end — and never affect results: attaching a
	// registry touches no RNG stream and changes no engine decision. One
	// registry may be shared by many concurrent runs (the batch runner's
	// fan-out); values then aggregate across runs. When nil (the default),
	// the hot path pays exactly one predictable branch per slot.
	Telemetry *telemetry.Registry
	// Workers selects the sharded execution mode for large topologies.
	//
	// 0 (the default) runs the historical serial engine: one goroutine,
	// one shared loss stream drawn in slot order. Its results are
	// bit-for-bit stable across releases and match every committed golden.
	//
	// Workers >= 1 switches the slot resolution to the sharded discipline:
	// receiver-side delivery decisions and overhearing draws come from
	// per-node RNG streams keyed by (run seed, slot, node), so they can be
	// evaluated concurrently by a bounded worker pool and merged in a fixed
	// order. Results under this discipline are bit-for-bit identical for
	// every worker count (Workers: 1 and Workers: 8 agree exactly; see the
	// equivalence suite in internal/flood and property_test.go) but differ
	// from the Workers: 0 stream, which draws from one sequential stream
	// whose consumption order cannot be reproduced shard-locally. The
	// sharded mode also activates the large-topology fast paths (CSR link
	// lookups, bucketed awake sets), making it the intended configuration
	// for 10k–100k-node runs even at Workers: 1. Negative values are
	// rejected; counts beyond the machine's parallelism waste scheduling
	// overhead but do not change results.
	Workers int
	// ShardStats, when non-nil, runs the sharded path (Workers >= 1) in
	// its work/span profiling mode: batches keep the configured worker
	// count's chunk geometry but execute sequentially on one goroutine,
	// each chunk timed contention-free (see the ShardStats type). It is
	// deliberately an out-parameter rather than a Result field: attaching
	// it cannot perturb result identity (runs with and without it are
	// bit-for-bit equal); wall time, however, resembles a one-worker run.
	// cmd/engbench -scale derives its workers_speedup metric from these
	// fields. Ignored when Workers is 0.
	ShardStats *ShardStats
	// CompactTime enables the compact-time-scale fast path (the paper's
	// Section III modeling move: analyze dissemination over active slots
	// only). The engine precomputes each schedule's periodic active-slot
	// structure, maintains the awake set incrementally, and steps directly
	// from one relevant slot to the next — slots on which no transmission,
	// reception, protocol decision or injection can occur are accounted
	// into AwakeSlotsPerNode and TotalSlots arithmetically, never
	// iterated. Results are bit-for-bit identical to the default path for
	// every shipped protocol (see the equivalence suite in
	// compact_test.go).
	//
	// The fast path silently falls back to the slot-by-slot path when it
	// cannot be applied: when Adapt is set (schedules mutate mid-run), or
	// when the schedules' hyperperiod (lcm of all periods) exceeds an
	// internal bound, making offset bucketing impractical.
	//
	// Contract for custom protocols: the engine only invokes the protocol
	// on relevant slots — slots where some awake node has a neighbor
	// holding a packet it lacks, or where two adjacent nodes are awake
	// while any node still misses a packet. A Protocol whose Intents
	// consults World.ProtoRNG (or other state) outside those situations
	// will observe a different random stream than under the default path;
	// all protocols in internal/flood satisfy the contract.
	CompactTime bool
}

func (c *Config) validate() error {
	if c.Graph == nil {
		return fmt.Errorf("sim: nil graph")
	}
	if len(c.Schedules) != c.Graph.N() {
		return fmt.Errorf("sim: %d schedules for %d nodes", len(c.Schedules), c.Graph.N())
	}
	for i, s := range c.Schedules {
		if s == nil {
			return fmt.Errorf("sim: nil schedule for node %d", i)
		}
	}
	if c.Protocol == nil {
		return fmt.Errorf("sim: nil protocol")
	}
	if c.M < 1 {
		return fmt.Errorf("sim: M = %d must be >= 1", c.M)
	}
	if c.InjectInterval < 0 {
		return fmt.Errorf("sim: negative inject interval")
	}
	if c.Coverage < 0 || c.Coverage > 1 {
		return fmt.Errorf("sim: coverage %v outside [0,1]", c.Coverage)
	}
	if c.SyncErrorProb < 0 || c.SyncErrorProb >= 1 {
		return fmt.Errorf("sim: sync error probability %v outside [0,1)", c.SyncErrorProb)
	}
	if c.CaptureProb < 0 || c.CaptureProb > 1 {
		return fmt.Errorf("sim: capture probability %v outside [0,1]", c.CaptureProb)
	}
	if c.Adapt != nil && c.AdaptEvery <= 0 {
		return fmt.Errorf("sim: Adapt requires AdaptEvery > 0")
	}
	if c.Workers < 0 {
		return fmt.Errorf("sim: negative worker count %d", c.Workers)
	}
	if err := c.Faults.Validate(c.Graph); err != nil {
		return err
	}
	return nil
}

// Result captures a run's metrics.
type Result struct {
	Protocol string
	M        int
	// CoverNodes is the node count that defines packet completion
	// (⌈coverage × N⌉, where N includes the source).
	CoverNodes int
	// InjectTime[p] is the slot at which packet p entered the network.
	InjectTime []int64
	// CoverTime[p] is the slot at which packet p reached CoverNodes nodes,
	// or -1 if it never did within the horizon.
	CoverTime []int64
	// Delay[p] = CoverTime[p] - InjectTime[p] (the paper's flooding delay),
	// or -1 for uncovered packets.
	Delay []int64
	// FirstHopDelay[p] is the delay until the packet left the source (the
	// transmission-delay component separated in Fig. 9), or -1.
	FirstHopDelay []int64

	Transmissions     int
	LossFailures      int
	CollisionFailures int
	BusyFailures      int
	SyncFailures      int
	// JamFailures counts transmissions that targeted a receiver inside an
	// active fault-schedule jamming region.
	JamFailures int
	Overheard   int
	// Crashes / Reboots count applied fault-schedule churn events;
	// CrashDropped totals the packet copies crashing nodes lost (each must
	// be re-disseminated for the flood to complete).
	Crashes      int
	Reboots      int
	CrashDropped int
	// Captures counts collisions salvaged by the capture effect.
	Captures  int
	TxPerNode []int
	// AwakeSlotsPerNode counts each node's scheduled active slots over the
	// run — the radio-on time that dominates its energy budget. Slots spent
	// transmitting outside the node's own schedule are counted in
	// TxPerNode, not here.
	AwakeSlotsPerNode []int64

	TotalSlots int64
	Completed  bool

	// NodeRecvTime[p][node] is the slot at which node received packet p
	// (-1 if never). Populated only when Config.RecordReceptions is set.
	NodeRecvTime [][]int64
}

// NodeDelays returns the per-node reception delays of packet p (reception
// slot minus injection slot), excluding nodes that never received it. It
// requires RecordReceptions; otherwise it returns nil.
func (r *Result) NodeDelays(p int) []int64 {
	if r.NodeRecvTime == nil || p < 0 || p >= len(r.NodeRecvTime) {
		return nil
	}
	var out []int64
	for _, rt := range r.NodeRecvTime[p] {
		if rt >= 0 {
			out = append(out, rt-r.InjectTime[p])
		}
	}
	return out
}

// Failures returns the total transmission failures (the Fig. 11 metric):
// link losses plus collisions plus transmissions wasted on a busy
// (transmitting) receiver plus synchronization misses plus receptions
// destroyed by jamming.
func (r *Result) Failures() int {
	return r.LossFailures + r.CollisionFailures + r.BusyFailures + r.SyncFailures + r.JamFailures
}

// MeanDelay returns the average per-packet flooding delay in slots over
// covered packets, or NaN if none were covered.
func (r *Result) MeanDelay() float64 {
	sum, n := 0.0, 0
	for _, d := range r.Delay {
		if d >= 0 {
			sum += float64(d)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
