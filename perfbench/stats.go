package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the two closest ranks, the same rule as
// internal/stats.Percentile and numpy's default. It returns NaN for an
// empty slice and never reorders xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	if lo < 0 {
		return s[0]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is percentile 50.
func median(xs []float64) float64 { return percentile(xs, 50) }

// completion is one runner progress observation: Done jobs have finished,
// their simulated slots sum to Slots, and Elapsed has passed since the batch
// started. The runner reports one per finished job (runner.Options.Progress);
// the service relays the same values as SSE "progress" events, where a slow
// reader may miss some.
type completion struct {
	Done    int
	Slots   int64
	Elapsed time.Duration
}

// jobSpan is one job's interval relative to the batch start. Known is false
// when a missed progress event hides its start or end.
type jobSpan struct {
	Start, End time.Duration
	Known      bool
}

// maxSubsets bounds the search for which in-flight jobs a progress event
// finished; past it the remaining jobs are reported unknown.
const maxSubsets = 1 << 16

// jobSpans reconstructs every job's start and end from the runner's
// progress stream, given each job's final simulated slot count (0 for a
// failed job) and the worker count. The runner claims jobs strictly in
// index order and a worker claims its next job as soon as it finishes one,
// so job j >= workers starts at the (j-workers+1)-th completion. Which
// in-flight job an event finished is the one whose slot count accounts for
// the event's slot delta; among equal candidates the lowest index is taken,
// which can swap the durations of two in-flight jobs with identical slot
// counts. Jobs whose start or end fell on a missed event are not Known.
func jobSpans(slots []int64, workers int, events []completion) ([]jobSpan, error) {
	n := len(slots)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	spans := make([]jobSpan, n)
	startKnown := make([]bool, n)
	for j := 0; j < workers; j++ {
		startKnown[j] = true
	}
	finished := make([]bool, n)
	prevDone, prevSlots := 0, int64(0)
	for _, ev := range events {
		if ev.Done <= prevDone {
			continue
		}
		if ev.Done > n {
			return nil, fmt.Errorf("progress reports %d of %d jobs done", ev.Done, n)
		}
		k := ev.Done - prevDone
		claimed := workers + ev.Done - 1
		if claimed > n {
			claimed = n
		}
		var cands []int
		for j := 0; j < claimed; j++ {
			if !finished[j] {
				cands = append(cands, j)
			}
		}
		pick := pickSubset(cands, slots, k, ev.Slots-prevSlots)
		if pick == nil {
			return nil, fmt.Errorf("no %d in-flight job(s) account for %d slots at completion %d", k, ev.Slots-prevSlots, ev.Done)
		}
		for _, j := range pick {
			finished[j] = true
			spans[j].End = ev.Elapsed
			spans[j].Known = k == 1 && startKnown[j]
		}
		// Completion number ev.Done let its worker claim job workers+ev.Done-1.
		if j := workers + ev.Done - 1; j < n {
			spans[j].Start = ev.Elapsed
			startKnown[j] = true
		}
		prevDone, prevSlots = ev.Done, ev.Slots
	}
	return spans, nil
}

// pickSubset returns the lexicographically first k-element subset of cands
// whose slots sum to want, or nil.
func pickSubset(cands []int, slots []int64, k int, want int64) []int {
	var (
		out   []int
		tries int
		walk  func(from int, sum int64) bool
	)
	walk = func(from int, sum int64) bool {
		if tries++; tries > maxSubsets {
			return false
		}
		if len(out) == k {
			return sum == want
		}
		for i := from; i <= len(cands)-(k-len(out)); i++ {
			out = append(out, cands[i])
			if walk(i+1, sum+slots[cands[i]]) {
				return true
			}
			out = out[:len(out)-1]
		}
		return false
	}
	if k > len(cands) || !walk(0, 0) {
		return nil
	}
	return out
}
