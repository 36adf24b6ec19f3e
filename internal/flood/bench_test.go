package flood

import (
	"testing"

	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// benchRun floods M packets on the GreenOrbs trace at the given period.
func benchRun(b *testing.B, p sim.Protocol, period, m int) {
	b.Helper()
	g := topology.GreenOrbs(1)
	scheds := uniform(g.N(), period, 7)
	b.ReportAllocs()
	b.ResetTimer()
	var delay float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Graph: g, Schedules: scheds, Protocol: p,
			M: m, Coverage: 0.99, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		delay += res.MeanDelay()
	}
	b.ReportMetric(delay/float64(b.N), "mean-delay-slots")
}

func BenchmarkOPTGreenOrbs(b *testing.B)   { benchRun(b, NewOPT(), 20, 10) }
func BenchmarkDBAOGreenOrbs(b *testing.B)  { benchRun(b, NewDBAO(), 20, 10) }
func BenchmarkOFGreenOrbs(b *testing.B)    { benchRun(b, NewOF(), 20, 10) }
func BenchmarkNaiveGreenOrbs(b *testing.B) { benchRun(b, NewNaive(), 20, 10) }

// The timer protocols on the same harness; ROADMAP's "DFlood within 3× of
// OPT" gate compares BenchmarkDFloodGreenOrbs against BenchmarkOPTGreenOrbs.
func BenchmarkTrickleGreenOrbs(b *testing.B) { benchRun(b, NewTrickle(), 20, 10) }
func BenchmarkDFloodGreenOrbs(b *testing.B)  { benchRun(b, NewDFlood(), 20, 10) }

// BenchmarkSlotThroughput measures raw engine slots/second with the
// cheapest protocol, isolating per-slot overhead.
func BenchmarkSlotThroughput(b *testing.B) {
	g := topology.GreenOrbs(1)
	scheds := uniform(g.N(), 50, 7)
	b.ReportAllocs()
	b.ResetTimer()
	var slots int64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Graph: g, Schedules: scheds, Protocol: NewOPT(),
			M: 20, Coverage: 0.99, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		slots += res.TotalSlots
	}
	b.ReportMetric(float64(slots)/float64(b.N), "slots-per-run")
}
