package flood

// Pinned goldens for the timer-driven protocols. Unlike the determinism
// checks elsewhere, which compare an implementation with itself, these
// digests were computed once and committed: any change to DFlood's or
// Trickle's firing decisions, suppression tally or per-node reception
// times on any engine path moves a digest. Optimisations of the timer
// arithmetic must leave every digest untouched; an intentional
// behavioural change must recompute them and say so in its commit.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// timerGoldenCases lists the pinned protocol variants: DFlood's default,
// a one-slot jitter span, a small doubling cap with an aggressive
// duplicate threshold, a lax threshold and the penalty disabled, plus
// default Trickle.
var timerGoldenCases = []struct {
	name   string
	mk     func() sim.Protocol
	digest string
}{
	{"dflood", func() sim.Protocol { return NewDFlood() }, "99b7d2df6554ab2695e8286d5556cb89c1617e9d6793ef949c6f0b5594d3ad39"},
	{"dflood-span1", func() sim.Protocol { return &DFlood{Tmin: 3, Tmax: 4} }, "40837751e27443bf3ed6edada8e4f3ead7fec7fb65f2a478722671a61aadc241"},
	{"dflood-doublings2", func() sim.Protocol { return &DFlood{Tmin: 7, Tmax: 200, Ndupl: 1, MaxDoublings: 2} }, "090833701c5f36c3b350a5b88d26d2d8da7058a325dd1321acb771ddbde61094"},
	{"dflood-ndupl4", func() sim.Protocol { return &DFlood{Ndupl: 4} }, "c36c887ad72ec652143a1569adfba74a540448880bf0f4124119556c83127c4a"},
	{"dflood-nopenalty", func() sim.Protocol { return &DFlood{Ndupl: -1} }, "8a3a40b2dbb51f7464f1ce00c0630861fe2e1fa504dadc26773483ed23b569ac"},
	{"trickle", func() sim.Protocol { return NewTrickle() }, "8f6249bb4bacca447fbe54092f1c9699a4bcc564875a617e6bf5f8ad0581a7e7"},
}

// timerGoldenDigest runs one protocol variant over the pinned grid —
// periods 5/20/50, seeds 1-3, Workers 0/2, CompactTime off/on — and
// hashes every cell's slot count, transmissions, per-node reception
// times, flood counters and per-node suppression tally, in grid order.
func timerGoldenDigest(t *testing.T, g *topology.Graph, mk func() sim.Protocol) string {
	t.Helper()
	h := sha256.New()
	for _, period := range []int{5, 20, 50} {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, workers := range []int{0, 2} {
				for _, compact := range []bool{false, true} {
					p := mk()
					res, err := sim.Run(sim.Config{
						Graph:            g,
						Schedules:        uniform(g.N(), period, seed),
						Protocol:         p,
						M:                8,
						Coverage:         0.99,
						Seed:             seed,
						MaxSlots:         2_000_000,
						RecordReceptions: true,
						Workers:          workers,
						CompactTime:      compact,
					})
					if err != nil {
						t.Fatalf("period %d seed %d workers %d compact %v: %v", period, seed, workers, compact, err)
					}
					if !res.Completed {
						t.Fatalf("period %d seed %d workers %d compact %v: flood incomplete", period, seed, workers, compact)
					}
					fmt.Fprintf(h, "period=%d seed=%d workers=%d compact=%v\n", period, seed, workers, compact)
					hashCell(h, res, p)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashCell folds one run's pinned quantities into h.
func hashCell(h hash.Hash, res *sim.Result, p sim.Protocol) {
	put := func(v int64) { _ = binary.Write(h, binary.LittleEndian, v) }
	put(res.TotalSlots)
	put(int64(res.Transmissions))
	for _, row := range res.NodeRecvTime {
		for _, v := range row {
			put(v)
		}
	}
	fc := p.(interface {
		FloodCounters() (messages, suppressed int64)
		SuppressedPerNode() []int64
	})
	messages, suppressed := fc.FloodCounters()
	put(messages)
	put(suppressed)
	for _, v := range fc.SuppressedPerNode() {
		put(v)
	}
}

func TestTimerGoldenDigests(t *testing.T) {
	cfg := topology.ScaledGreenOrbsConfig(150)
	g, err := topology.GenerateGreenOrbs(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range timerGoldenCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if got := timerGoldenDigest(t, g, c.mk); got != c.digest {
				t.Errorf("digest = %s, want %s", got, c.digest)
			}
		})
	}
}
