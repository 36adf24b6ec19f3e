package flood

import (
	"slices"

	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// DBAO reconstructs the Deterministic Back-off Assignment + Overhearing
// protocol (Li & Li, WASA'11) the paper uses to approximate OPT in
// practice. When a receiver wakes, every neighbor holding a packet it needs
// is a candidate sender. Candidates are ranked deterministically by link
// quality (the back-off assignment); the best-ranked candidate transmits
// first, and every candidate that can sense it defers.
//
// Carrier sensing uses the physical carrier-sense range, which exceeds the
// communication range (CSRangeFactor × the longest usable link); with node
// positions available the audibility graph is distance-based, otherwise it
// falls back to the communication graph. Candidates hidden from the winner
// cannot sense the ongoing transmission and fire with probability
// HiddenFireProb — sub-slot backoff jitter means a hidden candidate
// sometimes starts late enough to miss the receiver — and simultaneous
// transmissions collide at the receiver. This hidden-terminal residue is
// exactly the DBAO-to-OPT gap the paper measures. Overhearing lets silent
// awake neighbors of a successful sender pick the packet up for free.
type DBAO struct {
	// CSRangeFactor scales the carrier-sense range relative to the longest
	// link distance in the topology. The default 1.2 reproduces the
	// OPT-to-DBAO delay gap the paper measures (~1.6x at 5% duty); larger
	// factors suppress hidden terminals entirely and DBAO converges to OPT.
	CSRangeFactor float64
	// HiddenFireProb is the per-slot probability that a hidden candidate
	// transmits over the winner (default 0.5).
	HiddenFireProb float64
	// DisableOverhearing turns the overhearing mechanism off (ablation).
	DisableOverhearing bool

	assigned  []bool
	audible   audibility // carrier-sense audibility predicate
	csr       *topology.CSR
	intentBuf []sim.Intent
	candBuf   []dbaoCand
	firingBuf []dbaoCand
	sel       selScratch
}

// dbaoCand is one back-off candidate: a neighbor holding a packet the
// waking receiver needs, with the link quality that ranks it. The FCFS
// packet it would send is computed only for the candidates that actually
// fire (the world is frozen during Intents, so deferring the OldestNeeded
// scan is exact).
type dbaoCand struct {
	node int
	prr  float64
}

// dbaoRank orders candidates by the deterministic back-off rank: best link
// quality first, node id breaking ties.
func dbaoRank(a, b dbaoCand) int {
	if a.prr != b.prr {
		if a.prr > b.prr {
			return -1
		}
		return 1
	}
	return a.node - b.node
}

// NewDBAO returns a fresh DBAO instance with default parameters.
func NewDBAO() *DBAO { return &DBAO{} }

// Name implements sim.Protocol.
func (d *DBAO) Name() string { return "DBAO" }

// Reset implements sim.Protocol.
func (d *DBAO) Reset(w *sim.World) {
	d.assigned = make([]bool, w.Graph.N())
	if d.CSRangeFactor <= 0 {
		d.CSRangeFactor = 1.2
	}
	if d.HiddenFireProb <= 0 {
		d.HiddenFireProb = 0.5
	}
	d.audible = newAudibility(w.Graph, d.CSRangeFactor)
	d.csr = w.Graph.CSR()
}

// CollisionsApply implements sim.Protocol: hidden terminals collide.
func (d *DBAO) CollisionsApply() bool { return true }

// Overhears implements sim.Protocol.
func (d *DBAO) Overhears() bool { return !d.DisableOverhearing }

// Intents implements sim.Protocol.
func (d *DBAO) Intents(w *sim.World) []sim.Intent {
	out := d.intentBuf[:0]
	for _, r := range w.AwakeList() {
		if !w.NeedsAnything(r) {
			// No neighbor can hold anything r lacks, so the candidate scan
			// below would admit nobody (and draw no RNG) — skip it.
			continue
		}
		cands := d.candBuf[:0]
		row, prrs := d.csr.Row(r)
		for i, s32 := range row {
			s := int(s32)
			if d.assigned[s] {
				continue
			}
			if w.AnyNeeded(s, r) && !deferToReception(w, s) {
				cands = append(cands, dbaoCand{node: s, prr: prrs[i]})
			}
		}
		d.candBuf = cands
		if len(cands) == 0 {
			continue
		}
		// Deterministic back-off ranks: best link quality first, node id
		// breaking ties — every candidate computes the same order locally.
		// Only the rank-ordering of the *hidden* candidates is observable
		// (their fire/defer draws happen in rank order), so find the winner
		// with a linear max and sort just the handful of candidates that
		// cannot hear it, rather than the whole candidate list.
		wi := 0
		for i := 1; i < len(cands); i++ {
			if dbaoRank(cands[i], cands[wi]) < 0 {
				wi = i
			}
		}
		winner := cands[wi].node
		hidden := d.firingBuf[:0]
		for i, c := range cands {
			if i == wi || d.audible.has(c.node, winner) {
				continue // carrier sense: hears the winner's earlier start
			}
			hidden = append(hidden, c)
		}
		d.firingBuf = hidden
		slices.SortFunc(hidden, dbaoRank)
		d.assigned[winner] = true
		out = append(out, sim.Intent{From: winner, To: r, Packet: w.OldestNeeded(winner, r)})
		for _, c := range hidden {
			if w.ProtoRNG.Bool(d.HiddenFireProb) {
				d.assigned[c.node] = true
				out = append(out, sim.Intent{From: c.node, To: r, Packet: w.OldestNeeded(c.node, r)})
			}
		}
	}
	d.intentBuf = out
	// assigned holds exactly the senders emitted above; clearing those
	// entries instead of the whole array keeps the reset proportional to
	// the slot's actual transmissions.
	for _, in := range out {
		d.assigned[in.From] = false
	}
	return out
}
