package flood

import (
	"slices"

	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// Naive is the traditional flat flooding baseline: every node that holds a
// packet a waking neighbor needs contends to unicast it. Contention is
// resolved with id-based ranks rotated per slot (nodes have no link-quality
// knowledge), carrier sense over the physical audibility graph, and the
// same hidden-terminal behaviour as DBAO — but no overhearing and no
// structure. It exhibits the poor low-duty-cycle performance that motivates
// the paper (Section I).
type Naive struct {
	// HiddenFireProb mirrors DBAO's hidden-candidate behaviour.
	HiddenFireProb float64

	assigned  []bool
	audible   audibility
	csr       *topology.CSR
	intentBuf []sim.Intent
	candBuf   []int
	firingBuf []int
	sel       selScratch
}

// NewNaive returns a fresh Naive instance.
func NewNaive() *Naive { return &Naive{} }

// Name implements sim.Protocol.
func (n *Naive) Name() string { return "Naive" }

// Reset implements sim.Protocol.
func (n *Naive) Reset(w *sim.World) {
	n.assigned = make([]bool, w.Graph.N())
	if n.HiddenFireProb <= 0 {
		n.HiddenFireProb = 0.5
	}
	n.audible = newAudibility(w.Graph, 1.2)
	n.csr = w.Graph.CSR()
}

// CollisionsApply implements sim.Protocol.
func (n *Naive) CollisionsApply() bool { return true }

// Overhears implements sim.Protocol.
func (n *Naive) Overhears() bool { return false }

// Intents implements sim.Protocol.
func (n *Naive) Intents(w *sim.World) []sim.Intent {
	out := n.intentBuf[:0]
	for _, r := range w.AwakeList() {
		if !w.NeedsAnything(r) {
			// No neighbor can hold anything r lacks, so the candidate scan
			// below would admit nobody (and draw no RNG) — skip it.
			continue
		}
		cands := n.candBuf[:0]
		row, _ := n.csr.Row(r)
		for _, s32 := range row {
			s := int(s32)
			if !n.assigned[s] && w.AnyNeeded(s, r) && !deferToReception(w, s) {
				cands = append(cands, s)
			}
		}
		n.candBuf = cands
		if len(cands) == 0 {
			continue
		}
		slices.Sort(cands)
		// Rotate the rank origin by slot: no quality knowledge, just a
		// deterministic TDMA-ish rotation every node can compute.
		rot := int(w.Now()) % len(cands)
		winner := cands[rot]
		firing := append(n.firingBuf[:0], winner)
		for i, c := range cands {
			if i == rot {
				continue
			}
			if n.audible.has(c, winner) {
				continue
			}
			if w.ProtoRNG.Bool(n.HiddenFireProb) {
				firing = append(firing, c)
			}
		}
		n.firingBuf = firing
		for _, s := range firing {
			pkt := w.OldestNeeded(s, r)
			n.assigned[s] = true
			out = append(out, sim.Intent{From: s, To: r, Packet: pkt})
		}
	}
	n.intentBuf = out
	// assigned holds exactly the senders emitted above; clearing those
	// entries instead of the whole array keeps the reset proportional to
	// the slot's actual transmissions.
	for _, in := range out {
		n.assigned[in.From] = false
	}
	return out
}
