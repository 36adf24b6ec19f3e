package flood

// White-box checks of DFlood's jitter bracket: pairChoice draws the keyed
// jitter only when the jitter's range straddles a probe's decision. The
// bracket is sound if every verdict it reaches without drawing is the one
// the draw would have produced, for the extreme draws and on real runs.

import (
	"sync/atomic"
	"testing"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// TestDFloodBracketVerdicts sweeps jitter spans, penalties and every
// boundary slot of the bracket and checks each non-draw verdict against
// the per-packet decision taken after a draw of u = 0 and u = 1-2^-53,
// PairFloat64's smallest and largest outputs.
func TestDFloodBracketVerdicts(t *testing.T) {
	// decide is pairChoice's per-packet decision once the jitter is
	// known; probeDraw stands for "ready and becomes the choice".
	decide := func(now, base, req int64, chosen bool, best int64) probe {
		switch {
		case now < base:
			return probeNotDue
		case now < req:
			return probeBlocked
		case chosen && req >= best:
			return probeLoses
		}
		return probeDraw
	}
	const lo = 1000
	seen := map[probe]int{}
	for _, span := range []int64{1, 2, 3, 60, 1<<53 + 1, 1<<60 - 1} {
		for _, pen := range []int64{0, 1, 2, 65, 130} {
			var slots []int64
			for _, edge := range []int64{lo, lo + span - 1, lo + pen, lo + span - 1 + pen} {
				slots = append(slots, edge-1, edge, edge+1)
			}
			for _, now := range slots {
				for _, chosen := range []bool{false, true} {
					for _, best := range slots {
						v := bracket(now, lo, span, pen, chosen, best)
						seen[v]++
						for _, u := range []float64{0, 1 - 0x1p-53} {
							base := lo + int64(u*float64(span))
							if base < lo || base > lo+span-1 {
								t.Fatalf("span %d u %v: base %d outside [%d, %d]", span, u, base, lo, lo+span-1)
							}
							got := decide(now, base, base+pen, chosen, best)
							ok := v == probeDraw || v == got ||
								v == probeLoses && got != probeDraw
							if !ok {
								t.Fatalf("span %d pen %d now %d chosen %v best %d u %v: bracket says %d, draw decides %d",
									span, pen, now, chosen, best, u, v, got)
							}
						}
					}
				}
			}
		}
	}
	for _, v := range []probe{probeDraw, probeNotDue, probeBlocked, probeLoses} {
		if seen[v] == 0 {
			t.Errorf("verdict %d never reached by the sweep", v)
		}
	}
}

// pairChoiceDrawAll is pairChoice without the bracket: it draws the
// jitter for every offered packet, as the protocol did before the bracket.
func (d *DFlood) pairChoiceDrawAll(w *sim.World, s, r int, now int64) (pkt int, required int64, blocked bool) {
	pkt = -1
	blockedPkt := -1
	for p := 0; p < w.Injected(); p++ {
		if !w.Has(p, s) || w.Has(p, r) {
			continue
		}
		lo, pen, a := d.fireWindow(w, s, p)
		base := lo + d.jitter(s, p, a)
		req := base + pen
		if now < base {
			continue
		}
		if now < req {
			if blockedPkt < 0 {
				blockedPkt = p
			}
			continue
		}
		if pkt < 0 || req < required {
			pkt, required = p, req
		}
	}
	if pkt < 0 && blockedPkt >= 0 {
		return blockedPkt, 0, true
	}
	return pkt, required, false
}

// bracketProbe compares pairChoice with pairChoiceDrawAll for every pair
// the serial scan or the sharded planner consults. PlanReceiver runs on
// the engine's worker goroutines, so the tallies are atomic.
type bracketProbe struct {
	*DFlood
	pairs, mismatches atomic.Int64
}

func (b *bracketProbe) check(w *sim.World, r int) {
	now := w.Now()
	row, _ := b.csr.Row(r)
	for _, s32 := range row {
		s := int(s32)
		if !w.AnyNeeded(s, r) {
			continue
		}
		p1, req1, blk1 := b.pairChoice(w, s, r, now)
		p2, req2, blk2 := b.pairChoiceDrawAll(w, s, r, now)
		b.pairs.Add(1)
		if p1 != p2 || req1 != req2 || blk1 != blk2 {
			b.mismatches.Add(1)
		}
	}
}

func (b *bracketProbe) Intents(w *sim.World) []sim.Intent {
	for _, r := range w.AwakeList() {
		b.check(w, r)
	}
	return b.DFlood.Intents(w)
}

func (b *bracketProbe) PlanReceiver(w *sim.World, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	b.check(w, r)
	return b.DFlood.PlanReceiver(w, r, slot, buf)
}

// TestDFloodBracketMatchesDrawAll runs every pinned DFlood variant on the
// serial and sharded paths, with one and two possession words, and checks
// the bracketed pairChoice against the draw-everything oracle at every
// consulted pair.
func TestDFloodBracketMatchesDrawAll(t *testing.T) {
	g, err := topology.GenerateGreenOrbs(topology.ScaledGreenOrbsConfig(150), 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range timerGoldenCases {
		if _, ok := c.mk().(*DFlood); !ok {
			continue
		}
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for _, m := range []int{8, 70} {
				for _, workers := range []int{0, 2} {
					probe := &bracketProbe{DFlood: c.mk().(*DFlood)}
					_, err := sim.Run(sim.Config{
						Graph:     g,
						Schedules: uniform(g.N(), 10, 3),
						Protocol:  probe,
						M:         m,
						Coverage:  0.99,
						Seed:      3,
						MaxSlots:  2_000_000,
						Workers:   workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					if probe.pairs.Load() == 0 || probe.mismatches.Load() != 0 {
						t.Fatalf("M %d workers %d: %d of %d pairs differ from the draw-everything choice",
							m, workers, probe.mismatches.Load(), probe.pairs.Load())
					}
				}
			}
		})
	}
}
