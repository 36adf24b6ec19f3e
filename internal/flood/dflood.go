package flood

import (
	"math"
	"math/bits"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/sim"
	"ldcflood/internal/telemetry"
	"ldcflood/internal/topology"
)

// DFlood adapts dflood — duplicate-suppression flooding with adaptive
// backoff (Otnes & Haavik, OCEANS'13; the SNIPPETS.md gr-dflood exemplar)
// — to the engine's receiver-initiated slot model, with the exemplar's
// timing constants: Tmin 5, Tmax 65, Ndupl 2 (slots standing in for the
// exemplar's seconds).
//
// Per held packet a node schedules a forwarding slot: its reception slot
// plus Tmin, plus a uniform jitter in [0, Tmax-Tmin), plus a
// deterministic backoff that doubles with every transmission attempt
// already made — the adaptive-backoff rule that spaces out repeats of the
// same packet. Duplicate suppression is a liveness-preserving delay
// rather than a permanent drop: once Ndupl or more of the node's
// neighbors also hold the packet, each further duplicate postpones the
// forwarding slot by another Tmax. The penalty is bounded by the node's
// degree, so a packet some receiver still needs is always forwarded
// eventually — a permanent drop would deadlock the receiver-initiated
// engine. Penalty-blocked firings are tallied per node (FloodCounters,
// flood.dflood.suppressed).
//
// Like Trickle, every timing quantity is a pure function of the pre-slot
// world state and a keyed stream captured at Reset (jitter is keyed by
// (node, packet, attempt)); the attempt counters advance only at emit
// time in the serial phases. No engine hook is needed and the schedule is
// bit-identical across the serial, sharded, reference and compact paths.
type DFlood struct {
	// Tmin and Tmax bound the per-packet forwarding delay in slots. A
	// non-positive Tmin selects the exemplar default 5; a Tmax at or below
	// Tmin selects Tmin + 60 (the exemplar's 65 for the default Tmin).
	Tmin, Tmax int64
	// Ndupl is the duplicate threshold: with at least Ndupl neighboring
	// holders, each additional holder delays the forwarding slot by Tmax.
	// Zero selects the default (2); negative disables the penalty.
	Ndupl int
	// MaxDoublings caps the per-attempt backoff doubling; past it the
	// backoff grows linearly at Tmin << MaxDoublings per attempt. Zero
	// selects the default (6). Reset clamps it so Tmin << MaxDoublings
	// fits in int64, and the accumulated backoff saturates rather than
	// wrapping.
	MaxDoublings int
	// DisableOverhearing restricts DFlood to pure unicast receptions
	// (used by the serial-vs-planner metamorphic tests).
	DisableOverhearing bool

	m         int // packets per run (w.M), fixed at Reset
	csr       *topology.CSR
	timer     rngutil.Stream
	assigned  []bool
	attempts  []int32 // attempts[s*m+p]: transmissions of p by s so far
	intentBuf []sim.Intent
	sel       selScratch
	supp      suppCounters
}

// NewDFlood returns a DFlood instance with the exemplar's parameters
// (Tmin 5, Tmax 65, Ndupl 2).
func NewDFlood() *DFlood { return &DFlood{} }

// Name implements sim.Protocol.
func (d *DFlood) Name() string { return "DFlood" }

// Reset implements sim.Protocol.
func (d *DFlood) Reset(w *sim.World) {
	if d.Tmin <= 0 {
		d.Tmin = 5
	}
	if d.Tmax <= d.Tmin {
		d.Tmax = d.Tmin + 60
	}
	if d.Ndupl == 0 {
		d.Ndupl = 2
	}
	if d.MaxDoublings <= 0 {
		d.MaxDoublings = 6
	}
	d.MaxDoublings = min(d.MaxDoublings, maxShift(d.Tmin))
	d.m = w.M
	d.csr = w.Graph.CSR()
	d.timer = *w.ProtoRNG.SubName("dflood.timer")
	d.assigned = make([]bool, w.Graph.N())
	d.attempts = make([]int32, w.Graph.N()*w.M)
	d.supp.reset(w.Graph.N())
}

// CollisionsApply implements sim.Protocol.
func (d *DFlood) CollisionsApply() bool { return true }

// Overhears implements sim.Protocol: overheard duplicates are what the
// suppression rule feeds on.
func (d *DFlood) Overhears() bool { return !d.DisableOverhearing }

// Instrument attaches telemetry: flood.messages counts emitted intents,
// flood.dflood.suppressed counts duplicate-penalty-blocked firings.
// Attaching never affects results (see docs/OBSERVABILITY.md).
func (d *DFlood) Instrument(reg *telemetry.Registry) {
	d.supp.instrument(reg, "flood.dflood.suppressed")
}

// FloodCounters returns the run's emitted-message and suppressed-firing
// totals.
func (d *DFlood) FloodCounters() (messages, suppressed int64) {
	return d.supp.messages, d.supp.suppressed
}

// SuppressedPerNode returns the per-node suppressed-firing counts. The
// slice is owned by the protocol; do not modify.
func (d *DFlood) SuppressedPerNode() []int64 { return d.supp.perNode }

// maxBackoff saturates the attempt backoff. A backoff this large lies far
// beyond any run's horizon, and the headroom keeps the forwarding slots
// built on it from wrapping.
const maxBackoff = math.MaxInt64 >> 2

// backoff returns the deterministic backoff accumulated over a prior
// attempts: Tmin doubling per attempt, capped at Tmin << MaxDoublings,
// in closed form, saturating at maxBackoff. Never negative.
func (d *DFlood) backoff(a int32) int64 {
	if a <= 0 {
		return 0
	}
	da := int64(a)
	k := int64(d.MaxDoublings) // Reset keeps Tmin << k within int64
	if da <= k {
		return min(d.Tmin*((1<<da)-1), maxBackoff)
	}
	doubled, step := d.Tmin*((1<<k)-1), d.Tmin<<k
	if da-k > (maxBackoff-doubled)/step {
		return maxBackoff
	}
	return doubled + (da-k)*step
}

// fireWindow returns packet p's forwarding slots at node s up to the
// keyed jitter: the base slot is lo (reception slot + Tmin + attempt
// backoff) plus the jitter, and the penalized slot is the base plus pen,
// the duplicate penalty (one Tmax per neighboring holder at or past the
// Ndupl threshold). a is the attempt count that keys the jitter. Pure;
// callers guarantee s holds p.
func (d *DFlood) fireWindow(w *sim.World, s, p int) (lo, pen int64, a int32) {
	a = d.attempts[s*d.m+p]
	lo = w.RecvTime(p, s) + d.Tmin + d.backoff(a)
	if d.Ndupl >= 0 {
		if holders := w.NeighborHolders(p, s); holders >= d.Ndupl {
			pen = int64(holders-d.Ndupl+1) * d.Tmax
		}
	}
	return lo, pen, a
}

// jitter returns the keyed forwarding jitter of packet p at node s on
// attempt a. PairFloat64 returns k/2^53 < 1, so the jitter lies in
// [0, Tmax-Tmin-1].
func (d *DFlood) jitter(s, p int, a int32) int64 {
	u := d.timer.PairFloat64(uint64(s)*uint64(d.m)+uint64(p), uint64(a))
	return int64(u * float64(d.Tmax-d.Tmin))
}

// probe is the jitter-free verdict on one offered packet.
type probe uint8

const (
	// probeDraw: the jitter's range straddles the decision; draw it.
	probeDraw probe = iota
	// probeNotDue: the base slot lies after now for every jitter.
	probeNotDue
	// probeBlocked: the base slot has passed but the penalized slot has
	// not, for every jitter.
	probeBlocked
	// probeLoses: the penalized slot cannot undercut the packet already
	// chosen, whose penalized slot is best.
	probeLoses
)

// bracket decides a probe from the jitter's range alone. With the jitter
// in [0, span-1], base lies in [lo, lo+span-1] and required in
// [lo+pen, lo+span-1+pen], so a verdict other than probeDraw is the one
// pairChoice would reach for every possible draw.
func bracket(now, lo, span, pen int64, chosen bool, best int64) probe {
	switch {
	case now < lo:
		return probeNotDue
	case now >= lo+span-1 && now < lo+pen:
		return probeBlocked
	case chosen && lo+pen >= best:
		return probeLoses
	}
	return probeDraw
}

// pairChoice evaluates what sender s offers receiver r this slot: among
// the packets s holds and r lacks whose base forwarding slot has passed,
// the one with the smallest penalized slot (ties to the smaller packet
// index) if that slot has passed too — otherwise the pair is
// duplicate-blocked. It returns the packet (-1 when nothing is due), the
// penalized slot of the choice, and whether the pair is blocked. The
// keyed jitter is drawn only for packets the bracket cannot decide.
func (d *DFlood) pairChoice(w *sim.World, s, r int, now int64) (pkt int, required int64, blocked bool) {
	pkt = -1
	blockedPkt := -1
	span := d.Tmax - d.Tmin
	rh := w.Held(r)
	for i, sw := range w.Held(s) {
		// Set bits in ascending packet order, so ties still go to the
		// smaller packet index.
		for offer := sw &^ rh[i]; offer != 0; offer &= offer - 1 {
			p := i<<6 + bits.TrailingZeros64(offer)
			lo, pen, a := d.fireWindow(w, s, p)
			switch bracket(now, lo, span, pen, pkt >= 0, required) {
			case probeNotDue, probeLoses:
				continue
			case probeBlocked:
				if blockedPkt < 0 {
					blockedPkt = p
				}
				continue
			}
			base := lo + d.jitter(s, p, a)
			req := base + pen
			if now < base {
				continue // not yet due at all
			}
			if now < req {
				if blockedPkt < 0 {
					blockedPkt = p
				}
				continue // due, but duplicate-penalty-blocked
			}
			if pkt < 0 || req < required {
				pkt, required = p, req
			}
		}
	}
	if pkt < 0 && blockedPkt >= 0 {
		return blockedPkt, 0, true
	}
	return pkt, required, false
}

// Intents implements sim.Protocol: for each awake receiver, the due
// neighbor with the earliest forwarding slot (ties to the first in row
// order) transmits its chosen packet; duplicate-blocked pairs are tallied
// but stay silent. The full row is scanned so the suppression tally
// matches the planner path exactly.
func (d *DFlood) Intents(w *sim.World) []sim.Intent {
	out := d.intentBuf[:0]
	now := w.Now()
	for _, r := range w.AwakeList() {
		if !w.NeedsAnything(r) {
			continue
		}
		row, _ := d.csr.Row(r)
		best, bestPkt := -1, 0
		var bestReq int64
		for _, s32 := range row {
			s := int(s32)
			if !w.AnyNeeded(s, r) {
				continue
			}
			pkt, req, blocked := d.pairChoice(w, s, r, now)
			if pkt < 0 {
				continue
			}
			if blocked {
				d.supp.note(s32)
				continue
			}
			if d.assigned[s] {
				continue
			}
			if deferToReception(w, s) {
				continue
			}
			if best < 0 || req < bestReq {
				best, bestReq, bestPkt = s, req, pkt
			}
		}
		if best < 0 {
			continue
		}
		d.assigned[best] = true
		d.attempts[best*d.m+bestPkt]++
		d.supp.message()
		out = append(out, sim.Intent{From: best, To: r, Packet: bestPkt})
	}
	d.intentBuf = out
	for _, in := range out {
		d.assigned[in.From] = false
	}
	d.supp.endSlot()
	return out
}
