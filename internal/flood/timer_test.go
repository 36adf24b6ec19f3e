package flood

// Behavior and counter suite for the timer-driven protocols (Trickle,
// DFlood): timer arithmetic, suppression semantics, and the
// mode-invariance of the message/suppression counters under the engine's
// execution-path contract — identical across worker counts >= 1 on both
// time paths, and across the two time paths at Workers == 0.

import (
	"math"
	"reflect"
	"testing"

	"ldcflood/internal/sim"
	"ldcflood/internal/telemetry"
	"ldcflood/internal/topology"
)

func TestTrickleIntervalWalk(t *testing.T) {
	tr := &Trickle{Imin: 16, MaxDoublings: 3, imax: 16 << 3}
	cases := []struct {
		lastReset, now, start, length int64
	}{
		{0, 0, 0, 16},
		{0, 15, 0, 16},
		{0, 16, 16, 32},
		{0, 47, 16, 32},
		{0, 48, 48, 64},
		{0, 112, 112, 128},         // first capped interval
		{0, 239, 112, 128},         // still inside it
		{0, 240, 240, 128},         // arithmetic continuation at imax
		{0, 240 + 5*128, 880, 128}, // arbitrary capped jump
		{100, 99 + 17, 116, 32},    // non-zero reset origin
		{100, 100, 100, 16},        // reset slot itself
		{7, 7 + 16 + 32 + 64, 119, 128},
	}
	for _, c := range cases {
		start, length := tr.intervalAt(c.lastReset, c.now)
		if start != c.start || length != c.length {
			t.Errorf("intervalAt(%d, %d) = (%d, %d), want (%d, %d)",
				c.lastReset, c.now, start, length, c.start, c.length)
		}
		if !(start <= c.now && c.now < start+length) {
			t.Errorf("intervalAt(%d, %d): now outside [%d, %d)", c.lastReset, c.now, start, start+length)
		}
	}
}

func TestTrickleFirePointInSecondHalf(t *testing.T) {
	tr := NewTrickle()
	g := topology.Line(4, 1)
	res := runOn(t, g, alwaysOn(4), tr, 1, 3, 10000)
	if !res.Completed {
		t.Fatal("incomplete")
	}
	// The timer stream is now captured; probe fire points directly.
	for s := 0; s < 4; s++ {
		for _, start := range []int64{0, 16, 48, 113} {
			for _, length := range []int64{16, 32, 1024} {
				tau := tr.firePoint(s, start, length)
				if tau < start+length/2 || tau >= start+length {
					t.Fatalf("firePoint(%d, %d, %d) = %d outside [%d, %d)",
						s, start, length, tau, start+length/2, start+length)
				}
			}
		}
	}
}

func TestDFloodBackoffClosedForm(t *testing.T) {
	d := &DFlood{Tmin: 5, MaxDoublings: 6}
	// Reference: iterative doubling capped at Tmin << MaxDoublings.
	iterative := func(a int32) int64 {
		var sum, step int64 = 0, d.Tmin
		for i := int32(0); i < a; i++ {
			sum += step
			if step < d.Tmin<<d.MaxDoublings {
				step <<= 1
			}
		}
		return sum
	}
	for a := int32(0); a < 40; a++ {
		if got, want := d.backoff(a), iterative(a); got != want {
			t.Fatalf("backoff(%d) = %d, want %d", a, got, want)
		}
	}
}

// TestTrickleDoublingsClamped pins the overflow clamp: a MaxDoublings
// whose shift leaves int64 is clamped at Reset, so the interval keeps
// doubling instead of wrapping to a negative Imax.
func TestTrickleDoublingsClamped(t *testing.T) {
	tr := &Trickle{Imin: 16, MaxDoublings: 59}
	runOn(t, topology.Line(3, 1), alwaysOn(3), tr, 1, 1, 10000)
	if tr.MaxDoublings != 58 || tr.imax != 16<<58 {
		t.Fatalf("Trickle clamp: MaxDoublings %d, imax %d; want 58, %d", tr.MaxDoublings, tr.imax, int64(16<<58))
	}
	// Doubling from slot 0: intervals start at 16*(2^k - 1).
	if start, length := tr.intervalAt(0, 100000); start != 65520 || length != 65536 {
		t.Fatalf("intervalAt(0, 100000) = (%d, %d), want (65520, 65536)", start, length)
	}
}

// TestDFloodDoublingsClamped pins the backoff overflow fix: MaxDoublings
// is clamped at Reset and the backoff saturates, so it never goes
// negative or shrinks with more attempts.
func TestDFloodDoublingsClamped(t *testing.T) {
	d := &DFlood{MaxDoublings: 63}
	runOn(t, topology.Line(3, 1), alwaysOn(3), d, 1, 1, 10000)
	if d.MaxDoublings != 60 {
		t.Fatalf("DFlood clamp: MaxDoublings %d, want 60 for Tmin 5", d.MaxDoublings)
	}
	prev := int64(0)
	for _, a := range []int32{1, 2, 59, 60, 61, 62, 63, 64, 65, 100, 1 << 20, math.MaxInt32} {
		b := d.backoff(a)
		if b < prev {
			t.Fatalf("backoff(%d) = %d, below the previous attempt's %d", a, b, prev)
		}
		prev = b
	}
	if got := d.backoff(64); got != maxBackoff {
		t.Fatalf("backoff(64) = %d, want saturation at %d", got, int64(maxBackoff))
	}
}

// earlyFireProbe wraps DFlood's serial Intents and counts intents emitted
// before the sender's reception slot of the packet plus Tmin.
type earlyFireProbe struct {
	*DFlood
	early, total int
}

func (p *earlyFireProbe) Intents(w *sim.World) []sim.Intent {
	out := p.DFlood.Intents(w)
	for _, in := range out {
		p.total++
		if w.Now() < w.RecvTime(in.Packet, in.From)+p.Tmin {
			p.early++
		}
	}
	return out
}

// TestDFloodTminBoundsDelay pins the Tmax default for a large Tmin: the
// jitter window [0, Tmax-Tmin) must stay non-negative, so no packet is
// forwarded before RecvTime+Tmin.
func TestDFloodTminBoundsDelay(t *testing.T) {
	g := topology.GreenOrbs(1)
	probe := &earlyFireProbe{DFlood: &DFlood{Tmin: 100}}
	res := runOn(t, g, uniform(g.N(), 20, 7), probe, 5, 1, 2_000_000)
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if probe.Tmax != 160 {
		t.Fatalf("Tmax defaulted to %d, want Tmin+60 = 160", probe.Tmax)
	}
	if probe.total == 0 || probe.early > 0 {
		t.Fatalf("%d of %d intents fired before RecvTime+Tmin", probe.early, probe.total)
	}
}

// TestTimerProtocolsSuppress checks the suppression machinery actually
// engages on a dense topology and that the counters agree with their
// per-node breakdowns.
func TestTimerProtocolsSuppress(t *testing.T) {
	g := topology.GreenOrbs(3)
	for _, name := range []string{"trickle", "dflood"} {
		p, _ := New(name)
		res := runOn(t, g, uniform(g.N(), 10, 9), p, 5, 4, 2_000_000)
		if !res.Completed {
			t.Fatalf("%s incomplete", name)
		}
		type counted interface {
			FloodCounters() (int64, int64)
			SuppressedPerNode() []int64
		}
		c := p.(counted)
		messages, suppressed := c.FloodCounters()
		if messages == 0 {
			t.Fatalf("%s: no messages counted", name)
		}
		if int(messages) != res.Transmissions {
			t.Fatalf("%s: %d messages counted, %d transmissions recorded", name, messages, res.Transmissions)
		}
		if suppressed == 0 {
			t.Fatalf("%s: suppression never engaged on a dense graph", name)
		}
		var perNode int64
		for _, v := range c.SuppressedPerNode() {
			perNode += v
		}
		if perNode != suppressed {
			t.Fatalf("%s: per-node suppression sums to %d, total %d", name, perNode, suppressed)
		}
	}
}

// TestDFloodPenaltyDisabled pins the Ndupl semantics: with the duplicate
// penalty disabled (Ndupl < 0) nothing is ever suppressed, and with it
// enabled the flood spends fewer transmissions on a dense graph.
func TestDFloodPenaltyDisabled(t *testing.T) {
	g := topology.GreenOrbs(5)
	scheds := uniform(g.N(), 10, 11)
	off := &DFlood{Ndupl: -1}
	resOff := runOn(t, g, scheds, off, 5, 6, 2_000_000)
	_, suppressedOff := off.FloodCounters()
	if suppressedOff != 0 {
		t.Fatalf("penalty disabled but %d suppressions counted", suppressedOff)
	}
	on := NewDFlood()
	resOn := runOn(t, g, scheds, on, 5, 6, 2_000_000)
	if !resOff.Completed || !resOn.Completed {
		t.Fatal("runs incomplete")
	}
	if resOn.Transmissions >= resOff.Transmissions {
		t.Fatalf("duplicate suppression did not reduce transmissions: %d vs %d",
			resOn.Transmissions, resOff.Transmissions)
	}
}

// timerCounterRun executes one timer-protocol run and returns its result
// plus counters.
func timerCounterRun(t *testing.T, name string, workers int, compact bool) (*sim.Result, int64, int64, []int64) {
	t.Helper()
	g := topology.Grid(6, 6, 0.8)
	p, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Graph:     g,
		Schedules: uniform(g.N(), 20, 42),
		Protocol:  p,
		M:         3, Coverage: 0.99, Seed: 99, MaxSlots: 200000,
		Workers: workers, CompactTime: compact,
	})
	if err != nil {
		t.Fatalf("%s workers=%d compact=%v: %v", name, workers, compact, err)
	}
	type counted interface {
		FloodCounters() (int64, int64)
		SuppressedPerNode() []int64
	}
	c := p.(counted)
	messages, suppressed := c.FloodCounters()
	return res, messages, suppressed, c.SuppressedPerNode()
}

// TestProtocolCountersModeInvariant pins the counter determinism claim in
// counters.go: message and suppression counts are identical across worker
// counts >= 1 on both time paths (the sharded stream), and across the two
// time paths at Workers == 0 (the serial stream).
func TestProtocolCountersModeInvariant(t *testing.T) {
	for _, name := range []string{"trickle", "dflood"} {
		t.Run(name, func(t *testing.T) {
			baseMsg, baseSupp := int64(-1), int64(-1)
			var basePer []int64
			for _, mode := range []struct {
				workers int
				compact bool
			}{{1, false}, {2, false}, {4, false}, {1, true}, {4, true}} {
				_, msg, supp, per := timerCounterRun(t, name, mode.workers, mode.compact)
				if baseMsg < 0 {
					baseMsg, baseSupp, basePer = msg, supp, per
					continue
				}
				if msg != baseMsg || supp != baseSupp || !reflect.DeepEqual(per, basePer) {
					t.Errorf("workers=%d compact=%v: counters (%d, %d) diverge from (%d, %d)",
						mode.workers, mode.compact, msg, supp, baseMsg, baseSupp)
				}
			}
			_, serialMsg, serialSupp, serialPer := timerCounterRun(t, name, 0, false)
			_, cMsg, cSupp, cPer := timerCounterRun(t, name, 0, true)
			if serialMsg != cMsg || serialSupp != cSupp || !reflect.DeepEqual(serialPer, cPer) {
				t.Errorf("serial: compact path counters (%d, %d) diverge from reference (%d, %d)",
					cMsg, cSupp, serialMsg, serialSupp)
			}
		})
	}
}

// TestInstrumentNeutralAndMirrored checks that attaching a telemetry
// registry does not perturb the run and that the registry counters mirror
// the protocol's own tallies.
func TestInstrumentNeutralAndMirrored(t *testing.T) {
	g := topology.Grid(6, 6, 0.8)
	for _, name := range []string{"trickle", "dflood"} {
		run := func(reg *telemetry.Registry) (*sim.Result, int64, int64) {
			p, _ := New(name)
			if reg != nil {
				type instrumented interface {
					Instrument(*telemetry.Registry)
				}
				p.(instrumented).Instrument(reg)
			}
			res, err := sim.Run(sim.Config{
				Graph:     g,
				Schedules: uniform(g.N(), 20, 42),
				Protocol:  p,
				M:         3, Coverage: 0.99, Seed: 5, MaxSlots: 200000,
			})
			if err != nil {
				t.Fatal(err)
			}
			type counted interface {
				FloodCounters() (int64, int64)
			}
			msg, supp := p.(counted).FloodCounters()
			return res, msg, supp
		}
		plain, _, _ := run(nil)
		reg := telemetry.New()
		instrumented, msg, supp := run(reg)
		if !reflect.DeepEqual(plain, instrumented) {
			t.Errorf("%s: attaching telemetry changed the run", name)
		}
		snap := reg.Snapshot()
		if got := snap["flood.messages"]; got != msg {
			t.Errorf("%s: flood.messages = %d, protocol counted %d", name, got, msg)
		}
		if got := snap["flood."+name+".suppressed"]; got != supp {
			t.Errorf("%s: flood.%s.suppressed = %d, protocol counted %d", name, name, got, supp)
		}
	}
}
