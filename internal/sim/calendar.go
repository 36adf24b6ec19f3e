package sim

import (
	"cmp"
	"slices"
	"sort"

	"ldcflood/internal/schedule"
)

// calendar is the slot-by-slot path's awake-set source: a sparse index of
// every schedule's active offsets, stepped one slot at a time. Schedules
// are grouped into period classes; each class keeps its distinct active
// offsets sorted, the nodes awake at each offset, and a cursor on the
// next offset to fire. A slot costs O(classes + awake) and the structure
// O(n·k) memory for n schedules of k active slots each — independent of
// the periods, so no hyperperiod (lcm) is built and nothing is capped.
type calendar struct {
	classes []calClass
	fired   [][]int32 // scratch: the node lists firing this slot
	merged  []int32   // scratch: their union when several classes fire
}

// calClass is one period class of the calendar.
type calClass struct {
	period  int64
	offsets []int64   // sorted distinct active offsets within the period
	nodes   [][]int32 // nodes[j]: nodes awake at offsets[j], ascending id
	cur     int       // index of the next offset to fire
	next    int64     // absolute slot at which offsets[cur] fires
}

// newCalendar indexes scheds (node i's schedule at index i) and positions
// the calendar at slot t >= 0.
func newCalendar(scheds []*schedule.Schedule, t int64) *calendar {
	type entry struct {
		off  int64
		node int32
	}
	var (
		periods []int64
		entries [][]entry
		classOf = map[int]int{}
	)
	for i, s := range scheds {
		ci, ok := classOf[s.Period()]
		if !ok {
			ci = len(periods)
			classOf[s.Period()] = ci
			periods = append(periods, int64(s.Period()))
			entries = append(entries, nil)
		}
		for _, off := range s.ActiveSlots() {
			entries[ci] = append(entries[ci], entry{int64(off), int32(i)})
		}
	}
	c := &calendar{classes: make([]calClass, len(periods))}
	for ci, es := range entries {
		// Entries were appended in ascending node order, so a stable sort
		// by offset leaves every offset's node list ascending — the order
		// World.AwakeList promises.
		slices.SortStableFunc(es, func(a, b entry) int { return cmp.Compare(a.off, b.off) })
		cl := &c.classes[ci]
		cl.period = periods[ci]
		backing := make([]int32, len(es))
		start := 0
		for j, en := range es {
			backing[j] = en.node
			if j+1 == len(es) || es[j+1].off != en.off {
				cl.offsets = append(cl.offsets, en.off)
				cl.nodes = append(cl.nodes, backing[start:j+1:j+1])
				start = j + 1
			}
		}
		// Position the cursor on the first offset firing at or after t.
		phase := t % cl.period
		base := t - phase
		cl.cur = sort.Search(len(cl.offsets), func(j int) bool { return cl.offsets[j] >= phase })
		if cl.cur == len(cl.offsets) {
			cl.cur = 0
			base += cl.period
		}
		cl.next = base + cl.offsets[cl.cur]
	}
	return c
}

// awake returns the nodes whose schedules are active at slot t, in
// ascending id, and advances the calendar past t. Calls must visit
// consecutive slots from the one the calendar was positioned at. The
// returned slice is owned by the calendar and valid until the next call.
func (c *calendar) awake(t int64) []int32 {
	c.fired = c.fired[:0]
	for k := range c.classes {
		cl := &c.classes[k]
		if cl.next != t {
			continue
		}
		c.fired = append(c.fired, cl.nodes[cl.cur])
		prev := cl.offsets[cl.cur]
		if cl.cur++; cl.cur == len(cl.offsets) {
			cl.cur = 0
			cl.next += cl.period - prev + cl.offsets[0]
		} else {
			cl.next += cl.offsets[cl.cur] - prev
		}
	}
	switch len(c.fired) {
	case 0:
		return nil
	case 1:
		return c.fired[0]
	}
	// Each node belongs to exactly one class, so the fired lists are
	// disjoint; merging them is sorting their concatenation.
	c.merged = c.merged[:0]
	for _, l := range c.fired {
		c.merged = append(c.merged, l...)
	}
	slices.Sort(c.merged)
	return c.merged
}
