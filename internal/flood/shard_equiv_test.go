package flood

// Equivalence suite for the sharded engine (sim.Config.Workers >= 1) with
// the real protocols: worker counts must be interchangeable byte for byte
// across every protocol × time path × fault family, and the two time paths
// must agree under sharding just as they do serially. Every run captures
// its trace in BOTH encodings — text (tracelog) and binary (tracebin) —
// and the byte-identity guarantees are asserted on each independently,
// plus a round-trip check that the two encodings carry identical events.

import (
	"bytes"
	"reflect"
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
	"ldcflood/internal/tracebin"
	"ldcflood/internal/tracelog"
)

// fanout forwards every engine event to both trace encoders, so a single
// run yields its text and binary traces from the same event stream.
type fanout struct {
	text *tracelog.Logger
	bin  *tracebin.Writer
}

func (f fanout) OnInject(t int64, packet int) {
	f.text.OnInject(t, packet)
	f.bin.OnInject(t, packet)
}

func (f fanout) OnTransmit(t int64, from, to, packet int, outcome sim.TxOutcome) {
	f.text.OnTransmit(t, from, to, packet, outcome)
	f.bin.OnTransmit(t, from, to, packet, outcome)
}

func (f fanout) OnOverhear(t int64, from, node, packet int) {
	f.text.OnOverhear(t, from, node, packet)
	f.bin.OnOverhear(t, from, node, packet)
}

func (f fanout) OnCovered(t int64, packet int) {
	f.text.OnCovered(t, packet)
	f.bin.OnCovered(t, packet)
}

// traces bundles one run's trace bytes in both encodings.
type traces struct {
	text, bin []byte
}

// runSharded executes one configuration with the given worker count and
// time path, returning the result and the trace bytes in both encodings.
// A fresh protocol instance per run keeps memoized state from crossing
// runs.
func runSharded(t *testing.T, cfg sim.Config, protocol string, workers int, compact bool) (*sim.Result, traces) {
	t.Helper()
	p, err := New(protocol)
	if err != nil {
		t.Fatal(err)
	}
	var tbuf, bbuf bytes.Buffer
	obs := fanout{text: tracelog.NewLogger(&tbuf), bin: tracebin.NewWriter(&bbuf)}
	c := cfg
	c.Protocol = p
	c.Observer = obs
	c.Workers = workers
	c.CompactTime = compact
	res, err := sim.Run(c)
	if err != nil {
		t.Fatalf("%s workers=%d compact=%v: %v", protocol, workers, compact, err)
	}
	if err := obs.text.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := obs.bin.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, traces{text: tbuf.Bytes(), bin: bbuf.Bytes()}
}

// equalTraces asserts byte-identity of two runs' traces in both encodings.
func equalTraces(t *testing.T, a, b traces, context string) {
	t.Helper()
	if !bytes.Equal(a.text, b.text) {
		t.Errorf("%s: text traces diverge", context)
	}
	if !bytes.Equal(a.bin, b.bin) {
		t.Errorf("%s: binary traces diverge", context)
	}
}

// checkRoundTrip asserts the two encodings of one run carry identical
// events: the binary trace decodes cleanly and re-renders to the exact
// text bytes.
func checkRoundTrip(t *testing.T, tr traces, context string) {
	t.Helper()
	events, torn, err := tracebin.ReadAll(bytes.NewReader(tr.bin))
	if err != nil || torn {
		t.Fatalf("%s: binary trace did not decode cleanly: torn=%v err=%v", context, torn, err)
	}
	var buf bytes.Buffer
	l := tracelog.NewLogger(&buf)
	for _, ev := range events {
		switch ev.Kind {
		case tracelog.KindInject:
			l.OnInject(ev.T, ev.Packet)
		case tracelog.KindTransmit:
			l.OnTransmit(ev.T, ev.From, ev.To, ev.Packet, ev.Outcome)
		case tracelog.KindOverhear:
			l.OnOverhear(ev.T, ev.From, ev.To, ev.Packet)
		case tracelog.KindCovered:
			l.OnCovered(ev.T, ev.Packet)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), tr.text) {
		t.Errorf("%s: binary trace does not decode to the text trace's bytes", context)
	}
}

// allProtocols is Names() plus flash (which needs CaptureProb > 0, supplied
// by shardCfg).
func allProtocols() []string { return append(Names(), "flash") }

// shardCfg is faultCfg with the engine's secondary RNG streams (sync
// errors, capture) enabled, so the sharded discipline is exercised on every
// draw family at once.
func shardCfg(g *topology.Graph, faults *fault.Schedule, seed uint64) sim.Config {
	cfg := faultCfg(g, faults, seed)
	cfg.SyncErrorProb = 0.02
	cfg.CaptureProb = 0.4
	return cfg
}

// TestShardEquivalenceGrid is the sharded acceptance grid: every protocol ×
// both time paths × every fault family (plus the unfaulted case), workers
// 1, 2, 4 (and 8 on the reference path) must produce identical results and
// byte-identical traces; and at workers 4 the compact path must reproduce
// the reference path, the same guarantee the serial engine certifies
// elsewhere.
func TestShardEquivalenceGrid(t *testing.T) {
	schedules := faultSchedules()
	schedules["none"] = nil
	for name, fs := range schedules {
		fs := fs
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g := topology.Grid(6, 6, 0.8)
			cfg := shardCfg(g, fs, 1234)
			for _, protocol := range allProtocols() {
				ref1, refTrace1 := runSharded(t, cfg, protocol, 1, false)
				ref4, refTrace4 := runSharded(t, cfg, protocol, 4, false)
				for _, workers := range []int{2, 8} {
					refW, refTraceW := runSharded(t, cfg, protocol, workers, false)
					if !reflect.DeepEqual(ref1, refW) {
						t.Errorf("%s reference: workers %d diverged from workers 1", protocol, workers)
					}
					equalTraces(t, refTrace1, refTraceW,
						protocol+" reference workers 1 vs more")
				}
				if !reflect.DeepEqual(ref1, ref4) {
					t.Errorf("%s reference: workers 4 diverged from workers 1", protocol)
				}
				equalTraces(t, refTrace1, refTrace4, protocol+" reference workers 1 vs 4")
				cmp1, cmpTrace1 := runSharded(t, cfg, protocol, 1, true)
				cmp2, cmpTrace2 := runSharded(t, cfg, protocol, 2, true)
				if !reflect.DeepEqual(cmp1, cmp2) {
					t.Errorf("%s compact: workers 2 diverged from workers 1", protocol)
				}
				equalTraces(t, cmpTrace1, cmpTrace2, protocol+" compact workers 1 vs 2")
				cmp4, cmpTrace4 := runSharded(t, cfg, protocol, 4, true)
				if !reflect.DeepEqual(cmp1, cmp4) {
					t.Errorf("%s compact: workers 4 diverged from workers 1", protocol)
				}
				equalTraces(t, cmpTrace1, cmpTrace4, protocol+" compact workers 1 vs 4")
				if !reflect.DeepEqual(ref4, cmp4) {
					t.Errorf("%s: compact path diverged from reference path at workers 4", protocol)
				}
				equalTraces(t, refTrace4, cmpTrace4, protocol+" reference vs compact at workers 4")
				// The two encodings of one run must carry identical events.
				checkRoundTrip(t, refTrace1, protocol+" reference workers 1")
			}
		})
	}
}
