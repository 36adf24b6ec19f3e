package flood

// sim.ShardPlanner implementations for every protocol in the package.
//
// Under Workers >= 1 the engine moves the per-receiver candidate scan —
// the dominant serial cost of a slot — onto the worker pool, replacing the
// shared sequential ProtoRNG with (slot, node)-keyed sub-streams so every
// receiver's candidates are a pure function of (seed, slot, pre-slot world
// state) regardless of worker count or scan order. The cheap cross-receiver
// contention state (a sender serves one receiver per slot; OF's density
// divisor) stays in the serial SelectIntents pass.
//
// Keying scheme (all under the slot's protocol stream, which the engine
// derives at sim's protoStreamKey — disjoint from the engine's own node
// keys):
//
//   - defer-to-reception: SubValue2(sender, deferTag). One decision per
//     sender per slot. The serial path re-draws on every occurrence of a
//     sender across receiver scans; a keyed per-occurrence draw would need
//     a (receiver, sender, occurrence) key whose extra correlation buys
//     nothing, so the sharded path intentionally collapses it to one
//     decision — a semantic (not statistical) deviation the sharded
//     contract permits, since sharded results only promise identity across
//     worker counts, not identity with Workers == 0.
//   - per-pair fire draws (DBAO/Naive hidden terminals, OF opportunistic
//     forwarding): SubValue2(receiver, sender).Float64(), stashed in
//     Candidate.U. Receiver != sender on every link and deferTag exceeds
//     any node id, so the two key families never collide.
//
// Stored uniforms are compared as U < p, which agrees with the serial
// path's Bool(p) at both degenerate ends (p <= 0 never fires, p >= 1
// always fires, since U < 1 by construction) — the property the
// deterministic-subspace metamorphic tests exploit.
//
// PlanReceiver bodies are concurrency-clean: they read the World, the CSR
// and immutable protocol config, and append only to the engine-provided
// buffer. All mutable protocol scratch (assigned, selScratch) is touched
// only in SelectIntents, which the engine runs serially.

import (
	"slices"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/sim"
)

// deferProb is the defer-to-reception probability shared by every protocol
// (see deferToReception). A package variable so tests can zero it and land
// in the protocols' deterministic subspace.
var deferProb = 0.25

// deferTag keys the per-sender defer decision under the slot's protocol
// stream. It must exceed every node id so SubValue2(sender, deferTag)
// never collides with a SubValue2(receiver, sender) pair draw.
const deferTag uint64 = 1 << 62

// Candidate flag bits (Candidate.Flags).
const (
	// candDeferred marks a candidate whose sender drew defer-to-reception
	// this slot; selection treats it as silent.
	candDeferred uint8 = 1 << 0
	// candParent marks OF's tree-parent candidate, which PlanReceiver
	// always places first so selection can handle it before the
	// opportunistic density count.
	candParent uint8 = 1 << 1
	// candAudibleTop marks a DBAO candidate audible to the receiver's
	// top-ranked candidate. DBAO plans its candidates in rank order, so
	// when the top candidate is unassigned at selection time it is the
	// back-off winner and the hidden-terminal test is this precomputed
	// (parallel) bit instead of a serial audibility check.
	candAudibleTop uint8 = 1 << 2
	// candSuppressed marks a Trickle/DFlood candidate whose firing is
	// suppressed this slot (redundancy rule / duplicate penalty).
	// Selection never emits it — it is planned only so the serial
	// selection pass can tally the suppression exactly as the serial
	// Intents scan does (PlanReceiver itself must stay mutation-free).
	candSuppressed uint8 = 1 << 3
)

// deferKeyed is the sharded-path defer-to-reception decision: same
// predicate as deferToReception, with the draw keyed by (slot, sender)
// instead of consumed from the sequential ProtoRNG.
func deferKeyed(w *sim.World, sender int, slot *rngutil.Stream) bool {
	if !w.IsAwake(sender) || !w.NeedsAnything(sender) {
		return false
	}
	if deferProb <= 0 {
		return false
	}
	return slot.PairFloat64(uint64(sender), deferTag) < deferProb
}

// pairU is the keyed uniform for a (receiver, sender) contention decision.
func pairU(slot *rngutil.Stream, r, s int) float64 {
	return slot.PairFloat64(uint64(r), uint64(s))
}

// selScratch is the per-protocol SelectIntents scratch: the senders
// assigned this slot (for the sparse assigned reset the serial Intents
// path also uses) and candidate filter/sort buffers.
type selScratch struct {
	emitted []int32
	cands   []sim.Candidate
	hidden  []sim.Candidate
}

// ---- OPT ----

// PlanReceiver implements sim.ShardPlanner: every neighbor holding a
// packet r needs and not deferring is a candidate, sorted into selection
// rank order (PRR descending, node ascending) so the serial selection is
// a first-unassigned walk. Rows are ascending, so the node tie-break
// equals the serial rule's "first in row order among PRR ties".
func (o *OPT) PlanReceiver(w *sim.World, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	if !w.NeedsAnything(r) {
		return buf
	}
	row, prrs := o.csr.Row(r)
	for i, s32 := range row {
		s := int(s32)
		if w.AnyNeeded(s, r) && !deferKeyed(w, s, slot) {
			buf = append(buf, sim.Candidate{Node: s32, Packet: sim.PacketFCFS, PRR: prrs[i]})
		}
	}
	if len(buf) > 1 {
		slices.SortFunc(buf, dbaoRankCand)
	}
	return buf
}

// SelectIntents implements sim.ShardPlanner: the serial scan's selection
// rule — highest-PRR unassigned candidate, first in row order among ties
// — applied per receiver in ascending order. Candidates arrive
// rank-sorted from PlanReceiver, so the winner is simply the first
// unassigned one.
func (o *OPT) SelectIntents(w *sim.World, plan *sim.SlotPlan, emit func(in sim.Intent, prr float64)) {
	sel := o.sel.emitted[:0]
	for i := 0; i < plan.Len(); i++ {
		r := plan.Receiver(i)
		cands := plan.Candidates(i)
		for j := range cands {
			s := cands[j].Node
			if o.assigned[s] {
				continue
			}
			o.assigned[s] = true
			sel = append(sel, s)
			emit(sim.Intent{From: int(s), To: r, Packet: sim.PacketFCFS}, cands[j].PRR)
			break
		}
	}
	for _, s := range sel {
		o.assigned[s] = false
	}
	o.sel.emitted = sel
}

// ---- DBAO ----

// dbaoRankCand is dbaoRank over planned candidates.
func dbaoRankCand(a, b sim.Candidate) int {
	if a.PRR != b.PRR {
		if a.PRR > b.PRR {
			return -1
		}
		return 1
	}
	return int(a.Node - b.Node)
}

// PlanReceiver implements sim.ShardPlanner: the back-off candidate set
// (needed holders that did not defer) with pre-drawn hidden-fire uniforms,
// sorted into back-off rank order with audibility against the top-ranked
// candidate precomputed. Sorting and the audibility checks are the
// expensive parts of DBAO's selection rule; doing them here puts them on
// the worker pool and leaves SelectIntents a near-trivial serial walk.
func (d *DBAO) PlanReceiver(w *sim.World, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	if !w.NeedsAnything(r) {
		return buf
	}
	row, prrs := d.csr.Row(r)
	for i, s32 := range row {
		s := int(s32)
		if w.AnyNeeded(s, r) && !deferKeyed(w, s, slot) {
			buf = append(buf, sim.Candidate{Node: s32, Packet: sim.PacketFCFS, PRR: prrs[i], U: pairU(slot, r, s)})
		}
	}
	if len(buf) > 1 {
		slices.SortFunc(buf, dbaoRankCand)
		top := int(buf[0].Node)
		for j := 1; j < len(buf); j++ {
			if d.audible.has(int(buf[j].Node), top) {
				buf[j].Flags |= candAudibleTop
			}
		}
	}
	return buf
}

// SelectIntents implements sim.ShardPlanner: deterministic back-off winner
// plus hidden candidates firing on their stashed uniforms, in rank order.
// Candidates arrive rank-sorted from PlanReceiver, so the winner is the
// first unassigned candidate and the walk emits hidden candidates already
// in rank order. When the winner is the top-ranked candidate — the common
// case — the hidden-terminal test reads the plan-time candAudibleTop bit;
// otherwise it falls back to the audibility check against the actual
// winner.
func (d *DBAO) SelectIntents(w *sim.World, plan *sim.SlotPlan, emit func(in sim.Intent, prr float64)) {
	sel := d.sel.emitted[:0]
	for i := 0; i < plan.Len(); i++ {
		r := plan.Receiver(i)
		cands := plan.Candidates(i)
		wi := -1
		for j := range cands {
			if !d.assigned[cands[j].Node] {
				wi = j
				break
			}
		}
		if wi < 0 {
			continue
		}
		winner := cands[wi].Node
		d.assigned[winner] = true
		sel = append(sel, winner)
		emit(sim.Intent{From: int(winner), To: r, Packet: sim.PacketFCFS}, cands[wi].PRR)
		for j, c := range cands {
			if j == wi || d.assigned[c.Node] {
				continue
			}
			if wi == 0 {
				if c.Flags&candAudibleTop != 0 {
					continue
				}
			} else if d.audible.has(int(c.Node), int(winner)) {
				continue
			}
			if c.U < d.HiddenFireProb {
				d.assigned[c.Node] = true
				sel = append(sel, c.Node)
				emit(sim.Intent{From: int(c.Node), To: r, Packet: sim.PacketFCFS}, c.PRR)
			}
		}
	}
	for _, s := range sel {
		d.assigned[s] = false
	}
	d.sel.emitted = sel
}

// ---- Naive ----

// PlanReceiver implements sim.ShardPlanner.
func (n *Naive) PlanReceiver(w *sim.World, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	if !w.NeedsAnything(r) {
		return buf
	}
	row, prrs := n.csr.Row(r)
	for i, s32 := range row {
		s := int(s32)
		if w.AnyNeeded(s, r) && !deferKeyed(w, s, slot) {
			buf = append(buf, sim.Candidate{Node: s32, Packet: sim.PacketFCFS, PRR: prrs[i], U: pairU(slot, r, s)})
		}
	}
	return buf
}

// SelectIntents implements sim.ShardPlanner: the slot-rotated id-rank
// winner plus hidden candidates firing on their stashed uniforms. Rows are
// ascending, so the candidate list is already in the sorted order the
// serial path establishes.
func (n *Naive) SelectIntents(w *sim.World, plan *sim.SlotPlan, emit func(in sim.Intent, prr float64)) {
	sel := n.sel.emitted[:0]
	for i := 0; i < plan.Len(); i++ {
		r := plan.Receiver(i)
		cands := n.sel.cands[:0]
		for _, c := range plan.Candidates(i) {
			if !n.assigned[c.Node] {
				cands = append(cands, c)
			}
		}
		n.sel.cands = cands
		if len(cands) == 0 {
			continue
		}
		rot := int(w.Now()) % len(cands)
		winner := cands[rot]
		n.assigned[winner.Node] = true
		sel = append(sel, winner.Node)
		emit(sim.Intent{From: int(winner.Node), To: r, Packet: sim.PacketFCFS}, winner.PRR)
		for j, c := range cands {
			if j == rot || n.audible.has(int(c.Node), int(winner.Node)) {
				continue
			}
			if c.U < n.HiddenFireProb {
				n.assigned[c.Node] = true
				sel = append(sel, c.Node)
				emit(sim.Intent{From: int(c.Node), To: r, Packet: sim.PacketFCFS}, c.PRR)
			}
		}
	}
	for _, s := range sel {
		n.assigned[s] = false
	}
	n.sel.emitted = sel
}

// ---- OF ----

// PlanReceiver implements sim.ShardPlanner. The tree parent's candidate
// (flagged candParent) is always first; opportunistic candidates follow in
// row order. OF's packet choice feeds its delay comparison, so packets are
// resolved at plan time rather than via the FCFS sentinel.
func (o *OF) PlanReceiver(w *sim.World, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	parent := o.tr.Parent[r]
	if parent >= 0 {
		if pkt := w.OldestNeeded(parent, r); pkt >= 0 {
			flags := candParent
			if deferKeyed(w, parent, slot) {
				flags |= candDeferred
			}
			buf = append(buf, sim.Candidate{
				Node: int32(parent), Packet: int32(pkt), Flags: flags,
				PRR: o.csr.PRROf(r, parent),
			})
		}
	}
	if o.DisableOpportunistic {
		return buf
	}
	row, prrs := o.csr.Row(r)
	for i, s32 := range row {
		s := int(s32)
		if s == parent {
			continue
		}
		pkt := w.OldestNeeded(s, r)
		if pkt < 0 {
			continue
		}
		var flags uint8
		if deferKeyed(w, s, slot) {
			flags |= candDeferred
		}
		buf = append(buf, sim.Candidate{
			Node: s32, Packet: int32(pkt), Flags: flags,
			PRR: prrs[i], U: pairU(slot, r, s),
		})
	}
	return buf
}

// SelectIntents implements sim.ShardPlanner: the tree parent transmits if
// free and not deferring; opportunistic candidates then fire independently
// on their stashed uniforms against forwardProbability, whose density
// divisor counts the still-unassigned opportunistic candidates exactly as
// the serial scan does.
func (o *OF) SelectIntents(w *sim.World, plan *sim.SlotPlan, emit func(in sim.Intent, prr float64)) {
	sel := o.sel.emitted[:0]
	for i := 0; i < plan.Len(); i++ {
		r := plan.Receiver(i)
		cands := plan.Candidates(i)
		parentServes := false
		if len(cands) > 0 && cands[0].Flags&candParent != 0 {
			pc := cands[0]
			cands = cands[1:]
			if !o.assigned[pc.Node] && pc.Flags&candDeferred == 0 {
				o.assigned[pc.Node] = true
				sel = append(sel, pc.Node)
				emit(sim.Intent{From: int(pc.Node), To: r, Packet: int(pc.Packet)}, pc.PRR)
				parentServes = true
			}
		}
		if len(cands) == 0 {
			continue
		}
		oppCands := 0
		for j := range cands {
			if !o.assigned[cands[j].Node] {
				oppCands++
			}
		}
		if oppCands == 0 {
			continue
		}
		for j := range cands {
			c := &cands[j]
			if o.assigned[c.Node] {
				continue
			}
			q := o.forwardProbability(w, r, int(c.Packet), c.PRR, parentServes, oppCands)
			if q > 0 && c.U < q && c.Flags&candDeferred == 0 {
				o.assigned[c.Node] = true
				sel = append(sel, c.Node)
				emit(sim.Intent{From: int(c.Node), To: r, Packet: int(c.Packet)}, c.PRR)
			}
		}
	}
	for _, s := range sel {
		o.assigned[s] = false
	}
	o.sel.emitted = sel
}

// ---- Flash ----

// PlanReceiver implements sim.ShardPlanner: every holder of a needed
// packet that did not defer, packet resolved at plan time.
func (f *Flash) PlanReceiver(w *sim.World, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	row, prrs := f.csr.Row(r)
	for i, s32 := range row {
		s := int(s32)
		pkt := w.OldestNeeded(s, r)
		if pkt < 0 {
			continue
		}
		if deferKeyed(w, s, slot) {
			continue
		}
		buf = append(buf, sim.Candidate{Node: s32, Packet: int32(pkt), PRR: prrs[i]})
	}
	return buf
}

// SelectIntents implements sim.ShardPlanner: every unassigned candidate
// transmits — concurrency is the point.
func (f *Flash) SelectIntents(w *sim.World, plan *sim.SlotPlan, emit func(in sim.Intent, prr float64)) {
	sel := f.sel.emitted[:0]
	for i := 0; i < plan.Len(); i++ {
		r := plan.Receiver(i)
		for _, c := range plan.Candidates(i) {
			if f.assigned[c.Node] {
				continue
			}
			f.assigned[c.Node] = true
			sel = append(sel, c.Node)
			emit(sim.Intent{From: int(c.Node), To: r, Packet: int(c.Packet)}, c.PRR)
		}
	}
	for _, s := range sel {
		f.assigned[s] = false
	}
	f.sel.emitted = sel
}

// ---- Trickle ----

// PlanReceiver implements sim.ShardPlanner: every neighbor holding a
// packet r needs whose Trickle timer is armed this slot (fire point
// passed within the current interval), in row order.
// Suppressed firings are planned with candSuppressed so the serial
// selection pass can tally them; timer state is pure (keyed stream
// captured at Reset), so the scan reads nothing mutable.
func (t *Trickle) PlanReceiver(w *sim.World, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	if !w.NeedsAnything(r) {
		return buf
	}
	now := w.Now()
	row, prrs := t.csr.Row(r)
	for i, s32 := range row {
		s := int(s32)
		if !w.AnyNeeded(s, r) {
			continue
		}
		start, length := t.intervalAt(lastResetOf(w, s), now)
		if t.firePoint(s, start, length) > now {
			continue
		}
		var flags uint8
		if t.suppressedAt(w, s, start) {
			flags = candSuppressed
		} else if deferKeyed(w, s, slot) {
			flags = candDeferred
		}
		buf = append(buf, sim.Candidate{Node: s32, Packet: sim.PacketFCFS, Flags: flags, PRR: prrs[i]})
	}
	return buf
}

// SelectIntents implements sim.ShardPlanner: the first unassigned,
// unsuppressed, undeferred firing candidate in row order serves each
// receiver — the serial scan's rule — while suppressed candidates are
// tallied with the same per-slot sender dedupe the serial path applies.
func (t *Trickle) SelectIntents(w *sim.World, plan *sim.SlotPlan, emit func(in sim.Intent, prr float64)) {
	sel := t.sel.emitted[:0]
	for i := 0; i < plan.Len(); i++ {
		r := plan.Receiver(i)
		chosen := false
		for _, c := range plan.Candidates(i) {
			if c.Flags&candSuppressed != 0 {
				t.supp.note(c.Node)
				continue
			}
			if chosen || c.Flags&candDeferred != 0 || t.assigned[c.Node] {
				continue
			}
			t.assigned[c.Node] = true
			chosen = true
			sel = append(sel, c.Node)
			t.supp.message()
			emit(sim.Intent{From: int(c.Node), To: r, Packet: sim.PacketFCFS}, c.PRR)
		}
	}
	for _, s := range sel {
		t.assigned[s] = false
	}
	t.sel.emitted = sel
	t.supp.endSlot()
}

// ---- DFlood ----

// PlanReceiver implements sim.ShardPlanner: every due neighbor with its
// chosen packet and penalized forwarding slot (stashed in U — exact below
// 2^53), duplicate-blocked pairs planned with candSuppressed for the
// serial tally. The attempt counters it reads advance only in the serial
// SelectIntents pass.
func (d *DFlood) PlanReceiver(w *sim.World, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	if !w.NeedsAnything(r) {
		return buf
	}
	now := w.Now()
	row, prrs := d.csr.Row(r)
	for i, s32 := range row {
		s := int(s32)
		if !w.AnyNeeded(s, r) {
			continue
		}
		pkt, req, blocked := d.pairChoice(w, s, r, now)
		if pkt < 0 {
			continue
		}
		var flags uint8
		if blocked {
			flags = candSuppressed
		} else if deferKeyed(w, s, slot) {
			flags = candDeferred
		}
		buf = append(buf, sim.Candidate{Node: s32, Packet: int32(pkt), Flags: flags, PRR: prrs[i], U: float64(req)})
	}
	return buf
}

// SelectIntents implements sim.ShardPlanner: per receiver, the
// unassigned, undeferred candidate with the smallest penalized forwarding
// slot (ties to the first in row order) transmits and its attempt counter
// advances; duplicate-blocked candidates are tallied.
func (d *DFlood) SelectIntents(w *sim.World, plan *sim.SlotPlan, emit func(in sim.Intent, prr float64)) {
	sel := d.sel.emitted[:0]
	for i := 0; i < plan.Len(); i++ {
		r := plan.Receiver(i)
		cands := plan.Candidates(i)
		wi := -1
		for j := range cands {
			c := &cands[j]
			if c.Flags&candSuppressed != 0 {
				d.supp.note(c.Node)
				continue
			}
			if c.Flags&candDeferred != 0 || d.assigned[c.Node] {
				continue
			}
			if wi < 0 || c.U < cands[wi].U {
				wi = j
			}
		}
		if wi < 0 {
			continue
		}
		c := cands[wi]
		d.assigned[c.Node] = true
		d.attempts[int(c.Node)*d.m+int(c.Packet)]++
		sel = append(sel, c.Node)
		d.supp.message()
		emit(sim.Intent{From: int(c.Node), To: r, Packet: int(c.Packet)}, c.PRR)
	}
	for _, s := range sel {
		d.assigned[s] = false
	}
	d.sel.emitted = sel
	d.supp.endSlot()
}

// Compile-time interface checks: every protocol plans.
var (
	_ sim.ShardPlanner = (*OPT)(nil)
	_ sim.ShardPlanner = (*DBAO)(nil)
	_ sim.ShardPlanner = (*Naive)(nil)
	_ sim.ShardPlanner = (*OF)(nil)
	_ sim.ShardPlanner = (*Flash)(nil)
	_ sim.ShardPlanner = (*Trickle)(nil)
	_ sim.ShardPlanner = (*DFlood)(nil)
)
