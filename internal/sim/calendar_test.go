package sim

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/telemetry"
	"ldcflood/internal/topology"
)

// scanAwake is the test oracle for the calendar: the O(n) schedule scan
// the slot path used before it, in ascending node id.
func scanAwake(scheds []*schedule.Schedule, t int64) []int32 {
	var out []int32
	for i, s := range scheds {
		if s.IsActive(t) {
			out = append(out, int32(i))
		}
	}
	return out
}

// calendarTables are schedule tables covering every calendar shape: one
// class, mixed and coprime periods, periods above the compact path's
// hyperperiod cap, period 1, and multi-slot schedules.
func calendarTables() map[string][]*schedule.Schedule {
	rng := rngutil.New(11)
	mixed := func(n int, periods ...int) []*schedule.Schedule {
		out := make([]*schedule.Schedule, n)
		for i := range out {
			p := periods[rng.Intn(len(periods))]
			out[i] = schedule.NewSingleSlot(p, rng.Intn(p))
		}
		return out
	}
	multi := make([]*schedule.Schedule, 30)
	for i := range multi {
		p := []int{12, 20, 35}[i%3]
		k := 1 + rng.Intn(4)
		slots := make([]int, k)
		for j := range slots {
			slots[j] = rng.Intn(p) // duplicates allowed
		}
		multi[i] = schedule.NewMultiSlot(p, slots)
	}
	return map[string][]*schedule.Schedule{
		"uniform":       schedule.AssignUniform(40, 10, rngutil.New(3)),
		"aligned":       schedule.AssignAligned(9, 7, 4),
		"mixed":         mixed(40, 4, 6, 10, 15),
		"coprime":       mixed(40, 7, 11, 13, 17),
		"above-cap":     mixed(30, 9001, 10007, 12000),
		"period-1":      mixed(12, 1, 3),
		"all-period-1":  alwaysOn(5),
		"multi-slot":    multi,
		"single-node":   {schedule.NewSingleSlot(5, 4)},
		"large+uniform": schedule.AssignUniform(25, 100000, rngutil.New(4)),
	}
}

// TestCalendarMatchesScan: at every slot of a window spanning several
// periods, the calendar yields exactly the scan's awake list — from slot
// 0 and after seeking into the middle of the window.
func TestCalendarMatchesScan(t *testing.T) {
	for name, scheds := range calendarTables() {
		maxP := int64(1)
		for _, s := range scheds {
			maxP = max(maxP, int64(s.Period()))
		}
		window := min(3*maxP+5, 40000)
		for _, start := range []int64{0, 1, window / 3, maxP - 1} {
			cal := newCalendar(scheds, start)
			for tt := start; tt < window; tt++ {
				got, want := cal.awake(tt), scanAwake(scheds, tt)
				if !slices.Equal(got, want) {
					t.Fatalf("%s (from %d): slot %d awake %v, scan %v", name, start, tt, got, want)
				}
			}
		}
	}
}

// TestSlotPathAwakeSetMatchesScan drives full runs, serial and sharded,
// with and without crashes and with and without an Adapt hook that swaps
// schedules mid-run. At every slot the engine's awake set must be the
// scan over the current schedule table minus the crashed nodes, and the
// per-node awake tally must agree.
func TestSlotPathAwakeSetMatchesScan(t *testing.T) {
	const n = 16
	g := topology.Line(n, 0.8)
	base := mixedPeriodTable(n)
	for _, workers := range []int{0, 2} {
		for _, faulted := range []bool{false, true} {
			for _, adapt := range []bool{false, true} {
				name := fmt.Sprintf("workers=%d faulted=%v adapt=%v", workers, faulted, adapt)
				checkAwakeRun(t, name, g, slices.Clone(base), workers, faulted, adapt)
			}
		}
	}
}

// checkAwakeRun is one TestSlotPathAwakeSetMatchesScan configuration.
func checkAwakeRun(t *testing.T, name string, g *topology.Graph, scheds []*schedule.Schedule, workers int, faulted, adapt bool) {
	t.Helper()
	n := g.N()
	crashedAt := func(node int, tt int64) bool {
		return faulted && ((node == 5 && tt >= 40 && tt < 200) || (node == 9 && tt >= 120))
	}
	var checked int64
	tally := make([]int64, n)
	var errs []string
	cfg := Config{
		Graph:     g,
		Schedules: scheds,
		Protocol: &FuncProtocol{
			ProtocolName: "awake-probe",
			IntentsFunc: func(w *World) []Intent {
				tt := w.Now()
				var want []int
				for _, i := range scanAwake(w.Schedules, tt) {
					if !crashedAt(int(i), tt) {
						want = append(want, int(i))
						tally[i]++
					}
				}
				if !slices.Equal(w.AwakeList(), want) && len(errs) < 3 {
					errs = append(errs, fmt.Sprintf("slot %d: awake %v, scan %v", tt, w.AwakeList(), want))
				}
				checked++
				var out []Intent
				for _, r := range w.AwakeList() {
					if s := r - 1; s >= 0 {
						if p := w.OldestNeeded(s, r); p >= 0 {
							out = append(out, Intent{From: s, To: r, Packet: p})
						}
					}
				}
				return out
			},
		},
		M:        3,
		Coverage: 1,
		Seed:     5,
		MaxSlots: 3000,
		Workers:  workers,
	}
	if faulted {
		cfg.Faults = &fault.Schedule{Crashes: []fault.Crash{
			{Node: 5, At: 40, RebootAt: 200},
			{Node: 9, At: 120, RebootAt: -1},
		}}
	}
	swaps := 0
	if adapt {
		cfg.AdaptEvery = 25
		cfg.Adapt = func(w *World, scheds []*schedule.Schedule) {
			// Every other call re-periods a rotating pair of nodes
			// (one of them above the compact cap); the others leave the
			// table untouched.
			k := int(w.Now() / 25)
			if k%2 == 1 {
				return
			}
			swaps++
			i := k % n
			scheds[i] = schedule.NewSingleSlot(3+k%5, k%3)
			scheds[(i+7)%n] = schedule.NewMultiSlot(9001, []int{k % 9001, (k * 31) % 9001})
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) > 0 {
		t.Fatalf("%s: %s", name, strings.Join(errs, "; "))
	}
	if checked != res.TotalSlots || checked == 0 {
		t.Fatalf("%s: checked %d slots of %d", name, checked, res.TotalSlots)
	}
	if adapt && swaps == 0 {
		t.Fatalf("%s: Adapt never swapped a schedule", name)
	}
	if !slices.Equal(res.AwakeSlotsPerNode, tally) {
		t.Fatalf("%s: AwakeSlotsPerNode %v, scan tally %v", name, res.AwakeSlotsPerNode, tally)
	}
}

// mixedPeriodTable gives node i a single-slot schedule from a rotating
// set of periods: small coprime ones, period 1 and one above the compact
// path's hyperperiod cap.
func mixedPeriodTable(n int) []*schedule.Schedule {
	periods := []int{1, 4, 7, 9, 10007}
	out := make([]*schedule.Schedule, n)
	for i := range out {
		p := periods[i%len(periods)]
		out[i] = schedule.NewSingleSlot(p, (i*13)%p)
	}
	return out
}

// TestAwakeEntriesCounter pins sim.awake.entries on an unfaulted
// period-100000 run: the calendar visits exactly the awake entries, Σ
// AwakeSlotsPerNode, not n entries per slot.
func TestAwakeEntriesCounter(t *testing.T) {
	g := topology.Line(8, 1)
	reg := telemetry.New()
	res, err := Run(Config{
		Graph:     g,
		Schedules: schedule.AssignUniform(g.N(), 100000, rngutil.New(2)),
		Protocol:  chain{},
		M:         1,
		Coverage:  1,
		Seed:      1,
		MaxSlots:  350000,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, a := range res.AwakeSlotsPerNode {
		sum += a
	}
	got := reg.Snapshot()["sim.awake.entries"]
	if got != sum || sum == 0 {
		t.Fatalf("sim.awake.entries = %d, want Σ AwakeSlotsPerNode = %d", got, sum)
	}
	if got >= int64(g.N())*res.TotalSlots/1000 {
		t.Fatalf("sim.awake.entries = %d is not sparse over %d slots", got, res.TotalSlots)
	}
}

// TestHorizonSaturates: the default horizon for a period-1e15 table
// overflows int64 unless saturated; a saturated horizon lets the run reach
// the interrupt at slot 10 instead of silently running zero slots.
func TestHorizonSaturates(t *testing.T) {
	g := topology.Line(4, 1)
	scheds := make([]*schedule.Schedule, g.N())
	for i := range scheds {
		scheds[i] = schedule.NewSingleSlot(1e15, i)
	}
	var reached int64 = -1
	_, err := Run(Config{
		Graph:     g,
		Schedules: scheds,
		Protocol:  silent{},
		M:         1,
		Interrupt: func(t int64) bool {
			reached = t
			return t == 10
		},
	})
	if !errors.Is(err, ErrInterrupted) || reached != 10 {
		t.Fatalf("err = %v, reached slot %d; want an interrupt at slot 10", err, reached)
	}
}
