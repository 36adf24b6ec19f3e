package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"ldcflood/internal/sim"
)

// coverage is the paper's delivery-ratio target (Section V): a packet is
// flooded once ⌈0.99·N⌉ nodes, the source included, hold it.
const coverage = 0.99

// coverNodes mirrors the engine's coverage target for a graph of n nodes;
// it is needed where only the CSV artifact is available.
func coverNodes(n int) int {
	c := int(math.Ceil(coverage * float64(n)))
	if c < 1 {
		c = 1
	}
	if c > n {
		c = n
	}
	return c
}

// tally is the part of one simulation's output the gate checks.
type tally struct {
	Completed                          bool
	Transmissions, Failures, Overheard int
	CoverNodes, M                      int
}

func tallyOf(res *sim.Result) tally {
	return tally{
		Completed:     res.Completed,
		Transmissions: res.Transmissions,
		Failures:      res.Failures(),
		Overheard:     res.Overheard,
		CoverNodes:    res.CoverNodes,
		M:             res.M,
	}
}

// gate returns why one simulation's output is wrong, or "" when it holds:
// the flood completed; every covered packet needed at least CoverNodes-1
// receptions, each a decoded unicast or an overheard copy; and no more
// transmissions failed than were attempted. Decoded unicasts are counted
// as attempts minus failures, which includes OPT's redundant deliveries,
// so the reception bound is a lower bound.
func gate(t tally) string {
	switch {
	case !t.Completed:
		return "flood did not complete"
	case t.Failures > t.Transmissions:
		return fmt.Sprintf("%d failures exceed %d transmissions", t.Failures, t.Transmissions)
	case t.Transmissions-t.Failures+t.Overheard < (t.CoverNodes-1)*t.M:
		return fmt.Sprintf("%d receptions cannot cover %d packets at %d nodes",
			t.Transmissions-t.Failures+t.Overheard, t.M, t.CoverNodes)
	}
	return ""
}

// digest fingerprints one cell's output: its sweep CSV record plus any
// extra artifact bytes (a trace's own digest).
func digest(record []string, extra ...string) string {
	h := sha256.New()
	h.Write([]byte(strings.Join(record, ",")))
	for _, e := range extra {
		h.Write([]byte{'|'})
		h.Write([]byte(e))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// referenceFile holds per-cell digests of every workload at defaultSeed,
// in cell order. A result-changing commit shows up as a lower ref_match;
// it is reported, not counted as a failure.
//
//go:embed reference.json
var referenceFile []byte

// loadReference parses a reference document.
func loadReference(data []byte) (map[string][]string, error) {
	ref := map[string][]string{}
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	return ref, nil
}

// matchReference counts the cells whose digest equals the reference. cells
// is 0 when the workload has no reference of the same shape.
func matchReference(ref map[string][]string, workload string, got []string) (match, cells int) {
	want := ref[workload]
	if len(want) == 0 || len(want) != len(got) {
		return 0, 0
	}
	for i := range got {
		if got[i] == want[i] {
			match++
		}
	}
	return match, len(want)
}

// writeReference stores got as the workload's reference in the document
// at path, keeping the other workloads' entries.
func writeReference(path, workload string, got []string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	ref, err := loadReference(data)
	if err != nil {
		return err
	}
	ref[workload] = got
	out, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
