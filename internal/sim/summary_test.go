package sim

// Invariant certification for World's incremental summaries: the
// per-(node, packet) neighbor-holder counts and the per-node
// last-reception slot, maintained by deliver and dropAll, must equal a
// brute-force recount at every slot the protocol observes — on the serial
// and sharded paths, reference and compact time, with and without
// crash/reboot churn.

import (
	"fmt"
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
)

// summaryProbe wraps a protocol and recounts the world's summaries every
// time the engine asks it for intents. The first mismatch is kept in err.
type summaryProbe struct {
	Protocol
	checks int
	err    error
}

func (p *summaryProbe) Intents(w *World) []Intent {
	p.verify(w)
	return p.Protocol.Intents(w)
}

func (p *summaryProbe) verify(w *World) {
	p.checks++
	if p.err == nil {
		p.err = checkSummaries(w)
	}
}

// plannedProbe routes the sharded planner path through the probe: the
// check runs in SelectIntents, which the engine calls serially.
type plannedProbe struct {
	*summaryProbe
	planner ShardPlanner
}

func (p plannedProbe) PlanReceiver(w *World, r int, slot *rngutil.Stream, buf []Candidate) []Candidate {
	return p.planner.PlanReceiver(w, r, slot, buf)
}

func (p plannedProbe) SelectIntents(w *World, plan *SlotPlan, emit func(in Intent, prr float64)) {
	p.verify(w)
	p.planner.SelectIntents(w, plan, emit)
}

// overhearingGreedy is greedyPlanner with overhearing on, so the planner
// path's deliveries include the sharded overhear merge.
type overhearingGreedy struct{ greedyPlanner }

func (*overhearingGreedy) Overhears() bool { return true }

// checkSummaries recounts NeighborHolders over every CSR row and
// LastReception over every held packet's reception slot.
func checkSummaries(w *World) error {
	csr := w.Graph.CSR()
	for v := 0; v < w.Graph.N(); v++ {
		row, _ := csr.Row(v)
		last := int64(-1)
		for p := 0; p < w.M; p++ {
			want := 0
			for _, u := range row {
				if w.Has(p, int(u)) {
					want++
				}
			}
			if got := w.NeighborHolders(p, v); got != want {
				return fmt.Errorf("slot %d: NeighborHolders(%d, %d) = %d, recount %d", w.Now(), p, v, got, want)
			}
			if w.Has(p, v) {
				last = max(last, w.RecvTime(p, v))
			}
		}
		if got := w.LastReception(v); got != last {
			return fmt.Errorf("slot %d: LastReception(%d) = %d, recount %d", w.Now(), v, got, last)
		}
	}
	return nil
}

func TestWorldSummariesMatchRecount(t *testing.T) {
	dropped := 0
	for seed := uint64(1); seed <= 6; seed++ {
		for _, churn := range []bool{false, true} {
			for _, workers := range []int{0, 1, 4} {
				for _, compact := range []bool{false, true} {
					for _, planned := range []bool{false, true} {
						if planned && workers == 0 {
							continue // the serial engine never plans
						}
						name := fmt.Sprintf("seed%d/churn=%v/workers=%d/compact=%v/planned=%v", seed, churn, workers, compact, planned)
						dropped += summaryRun(t, name, seed, churn, workers, compact, planned)
					}
				}
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no crash ever dropped a packet; the dropAll rollback went unexercised")
	}
}

// summaryRun floods a seeded random graph under the probe and returns the
// packet copies crashes dropped. M alternates across the one-word and
// multi-word possession layouts.
func summaryRun(t *testing.T, name string, seed uint64, churn bool, workers int, compact, planned bool) int {
	t.Helper()
	r := rngutil.New(seed)
	g := randomConnectedGraph(r)
	n := g.N()
	m := 3
	if seed%2 == 0 {
		m = 70
	}
	var inner Protocol = &chaosProtocol{
		rng: r.SubName("chaos"), density: 0.5, collide: seed%3 == 0, overhear: true,
	}
	probe := &summaryProbe{}
	var proto Protocol = probe
	if planned {
		gp := &overhearingGreedy{}
		inner = gp
		proto = plannedProbe{summaryProbe: probe, planner: gp}
	}
	probe.Protocol = inner
	var faults *fault.Schedule
	if churn {
		a, b := 1+int(seed)%(n-1), 1+int(seed+1)%(n-1) // distinct: n >= 3
		faults = &fault.Schedule{Crashes: []fault.Crash{
			{Node: a, At: 6, RebootAt: 20},
			{Node: a, At: 35, RebootAt: 50},
			{Node: b, At: 15, RebootAt: -1},
		}}
	}
	res, err := Run(Config{
		Graph:       g,
		Schedules:   schedule.AssignUniform(n, 1+int(seed%3), r.SubName("schedule")),
		Protocol:    proto,
		M:           m,
		Coverage:    1,
		Seed:        seed,
		MaxSlots:    3000,
		CaptureProb: 0.3,
		Faults:      faults,
		Workers:     workers,
		CompactTime: compact,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if probe.err != nil {
		t.Fatalf("%s: %v", name, probe.err)
	}
	if probe.checks == 0 {
		t.Fatalf("%s: protocol never consulted", name)
	}
	return res.CrashDropped
}
