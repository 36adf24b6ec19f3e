package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileKnownInputs(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {25, 1.75}, {50, 2.5}, {75, 3.25}, {100, 4},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v, want 7", got)
	}
	if got := median([]float64{1, 9, 5}); got != 5 {
		t.Errorf("median odd = %v, want 5", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
}

// Two workers, four jobs: job 0 runs [0,5], job 1 [0,3], job 2 [3,9] on
// the worker job 1 freed, job 3 [5,6] on the worker job 0 freed.
var (
	spanSlots  = []int64{10, 20, 30, 40}
	spanEvents = []completion{
		{Done: 1, Slots: 20, Elapsed: 3},
		{Done: 2, Slots: 30, Elapsed: 5},
		{Done: 3, Slots: 70, Elapsed: 6},
		{Done: 4, Slots: 100, Elapsed: 9},
	}
)

func TestJobSpansReconstructsSchedule(t *testing.T) {
	got, err := jobSpans(spanSlots, 2, spanEvents)
	if err != nil {
		t.Fatal(err)
	}
	want := []jobSpan{{0, 5, true}, {0, 3, true}, {3, 9, true}, {5, 6, true}}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("job %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestJobSpansMissedEvent(t *testing.T) {
	events := []completion{spanEvents[0], spanEvents[2], spanEvents[3]}
	got, err := jobSpans(spanSlots, 2, events)
	if err != nil {
		t.Fatal(err)
	}
	// The missed second completion hides job 0's end and job 3's start;
	// jobs 1 and 2 are still fully known.
	for i, known := range []bool{false, true, true, false} {
		if got[i].Known != known {
			t.Errorf("job %d known = %v, want %v (%+v)", i, got[i].Known, known, got[i])
		}
	}
	if got[2] != (jobSpan{3, 9, true}) {
		t.Errorf("job 2 = %+v", got[2])
	}
}

func TestJobSpansRejectsInconsistentStream(t *testing.T) {
	bad := []completion{{Done: 1, Slots: 25, Elapsed: time.Millisecond}}
	if _, err := jobSpans(spanSlots, 2, bad); err == nil {
		t.Fatal("a slot delta no in-flight job accounts for was accepted")
	}
}
