package flood

import (
	"math/bits"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/sim"
	"ldcflood/internal/telemetry"
	"ldcflood/internal/topology"
)

// Trickle adapts the Trickle algorithm (Levis et al., NSDI'04; RFC 6206)
// to the engine's receiver-initiated slot model. Each node runs an
// interval-doubling timer: receiving a new packet resets its interval to
// Imin, and each interval thereafter doubles up to Imin << MaxDoublings.
// Within the current interval [start, start+I) the node picks one fire
// point uniformly in the second half [start+I/2, start+I) and its timer is
// armed from that slot to the end of the interval — Trickle's
// listen-then-maybe-talk discipline, adapted to duty cycling: the engine
// is receiver-initiated, so a transmission happens only when a needy
// receiver is awake, and a single-slot fire point would almost never
// coincide with any receiver's rare awake slot at low duty cycles.
// A firing is suppressed when at least
// K consistent neighbors (identical packet buffers) fired earlier within
// the node's current listening window, the redundancy-constant rule that
// gives Trickle its bounded per-node message rate; suppressed firings are
// tallied per node (FloodCounters, flood.trickle.suppressed).
//
// Every timer quantity is a pure function of the pre-slot world state and
// a keyed RNG stream captured at Reset, before any sequential protocol
// draw: fire points are keyed by (node, interval start), so they are
// bit-identical across the serial, sharded, reference and compact engine
// paths with no new engine hook. The only sequential randomness is the
// shared defer-to-reception draw.
type Trickle struct {
	// Imin is the smallest Trickle interval in slots. Zero selects the
	// default (16).
	Imin int64
	// MaxDoublings bounds the interval at Imin << MaxDoublings. Zero
	// selects the default (6, i.e. Imax = 64*Imin). Keeping Imax modest
	// matters under low duty cycles: a fire point is only useful when a
	// needy receiver is awake at it, so steady-state retry latency is
	// roughly Imax divided by the duty cycle. Reset clamps it so Imax
	// fits in int64.
	MaxDoublings int
	// K is the redundancy constant: a firing with at least K consistent
	// earlier transmissions in its listening window is suppressed. Zero
	// selects the default (2); negative disables suppression.
	K int
	// DisableOverhearing restricts Trickle to pure unicast receptions
	// (used by the serial-vs-planner metamorphic tests, whose overhearing
	// semantics legitimately differ between the two paths).
	DisableOverhearing bool

	imax      int64
	csr       *topology.CSR
	timer     rngutil.Stream
	assigned  []bool
	intentBuf []sim.Intent
	sel       selScratch
	supp      suppCounters
}

// NewTrickle returns a Trickle instance with the default parameters
// (Imin 16, MaxDoublings 6, K 2).
func NewTrickle() *Trickle { return &Trickle{} }

// Name implements sim.Protocol.
func (t *Trickle) Name() string { return "Trickle" }

// Reset implements sim.Protocol. It captures the keyed timer stream from
// the protocol RNG before any sequential draw, so fire points are
// identical on every engine path.
func (t *Trickle) Reset(w *sim.World) {
	if t.Imin <= 0 {
		t.Imin = 16
	}
	if t.MaxDoublings <= 0 {
		t.MaxDoublings = 6
	}
	if t.K == 0 {
		t.K = 2
	}
	t.MaxDoublings = min(t.MaxDoublings, maxShift(t.Imin))
	t.imax = t.Imin << t.MaxDoublings
	t.csr = w.Graph.CSR()
	t.timer = *w.ProtoRNG.SubName("trickle.timer")
	t.assigned = make([]bool, w.Graph.N())
	t.supp.reset(w.Graph.N())
}

// CollisionsApply implements sim.Protocol: Trickle is a practical
// protocol; concurrent transmissions in range collide.
func (t *Trickle) CollisionsApply() bool { return true }

// Overhears implements sim.Protocol: suppression protocols thrive on
// promiscuous reception.
func (t *Trickle) Overhears() bool { return !t.DisableOverhearing }

// Instrument attaches telemetry: flood.messages counts emitted intents,
// flood.trickle.suppressed counts suppressed firings. Attaching never
// affects results (see docs/OBSERVABILITY.md).
func (t *Trickle) Instrument(reg *telemetry.Registry) {
	t.supp.instrument(reg, "flood.trickle.suppressed")
}

// FloodCounters returns the run's emitted-message and suppressed-firing
// totals.
func (t *Trickle) FloodCounters() (messages, suppressed int64) {
	return t.supp.messages, t.supp.suppressed
}

// SuppressedPerNode returns the per-node suppressed-firing counts. The
// slice is owned by the protocol; do not modify.
func (t *Trickle) SuppressedPerNode() []int64 { return t.supp.perNode }

// maxShift returns the largest k for which base << k stays a positive
// int64 — the clamp Trickle and DFlood apply to MaxDoublings. base > 0.
func maxShift(base int64) int {
	return 63 - bits.Len64(uint64(base))
}

// lastResetOf returns node s's most recent interval reset: the latest slot
// at which it received any packet it holds (injection included), clamped
// at 0 for a node holding nothing. An O(1) read of the world's summary.
func lastResetOf(w *sim.World, s int) int64 {
	return max(w.LastReception(s), 0)
}

// intervalAt returns the start and length of the current Trickle interval
// at slot now for a node whose last reset was lastReset: doubling from
// Imin until the interval caps at imax, then arithmetic in one jump.
func (t *Trickle) intervalAt(lastReset, now int64) (start, length int64) {
	start, length = lastReset, t.Imin
	for start+length <= now && length < t.imax {
		start += length
		length <<= 1
	}
	if start+length <= now {
		start += (now - start) / length * length
	}
	return start, length
}

// firePoint returns node s's fire point in the interval [start,
// start+length): uniform over the second half, keyed purely by (node,
// interval start).
func (t *Trickle) firePoint(s int, start, length int64) int64 {
	half := length / 2
	u := t.timer.PairFloat64(uint64(s), uint64(start))
	return start + half + int64(u*float64(length-half))
}

// suppressedAt reports whether node s's firing this slot is suppressed:
// at least K consistent neighbors (identical buffers — neither side holds
// anything the other lacks) have fire points inside s's listening window
// [startS, now). Pure world-state + keyed-stream computation; w.Now() is
// inside s's armed window [fire point, interval end) when this is
// evaluated.
func (t *Trickle) suppressedAt(w *sim.World, s int, startS int64) bool {
	if t.K < 0 {
		return false
	}
	now := w.Now()
	c := 0
	row, _ := t.csr.Row(s)
	for _, n32 := range row {
		n := int(n32)
		if w.AnyNeeded(s, n) || w.AnyNeeded(n, s) {
			continue // inconsistent neighbor: its transmissions don't count
		}
		ns, nl := t.intervalAt(lastResetOf(w, n), now)
		if tau := t.firePoint(n, ns, nl); tau >= startS && tau < now {
			c++
			if c >= t.K {
				return true
			}
		}
	}
	return false
}

// Intents implements sim.Protocol: for each awake receiver, the first
// neighbor in row order whose Trickle timer is armed this slot, is not
// suppressed, and does not defer transmits its FCFS packet. The scan
// continues past the chosen sender so every suppressed firing is tallied
// exactly as the planner path tallies it.
func (t *Trickle) Intents(w *sim.World) []sim.Intent {
	out := t.intentBuf[:0]
	now := w.Now()
	for _, r := range w.AwakeList() {
		if !w.NeedsAnything(r) {
			continue
		}
		row, _ := t.csr.Row(r)
		chosen := false
		for _, s32 := range row {
			s := int(s32)
			if !w.AnyNeeded(s, r) {
				continue
			}
			start, length := t.intervalAt(lastResetOf(w, s), now)
			if t.firePoint(s, start, length) > now {
				continue
			}
			if t.suppressedAt(w, s, start) {
				t.supp.note(s32)
				continue
			}
			if chosen || t.assigned[s] {
				continue
			}
			if deferToReception(w, s) {
				continue
			}
			t.assigned[s] = true
			chosen = true
			t.supp.message()
			out = append(out, sim.Intent{From: s, To: r, Packet: w.OldestNeeded(s, r)})
		}
	}
	t.intentBuf = out
	for _, in := range out {
		t.assigned[in.From] = false
	}
	t.supp.endSlot()
	return out
}
