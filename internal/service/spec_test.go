package service

import (
	"strings"
	"testing"
)

func TestLegacyJournalKey(t *testing.T) {
	const want = "sweep|protocols=opt,of|duties=0.1,0.2|seeds=2|m=5|coverage=0.99|toposeed=1|syncerr=0|compact=false|sharded=false|faults=0"
	cases := []struct {
		name   string
		stored string
		legacy bool
	}{
		{"trailing zeros", "sweep|protocols=opt,of|duties=0.10,0.20|seeds=2|m=5|coverage=0.99|toposeed=1|syncerr=0|compact=false|sharded=false|faults=0", true},
		{"whitespace and zeros", "sweep|protocols=opt,of|duties=0.10, 0.20|seeds=2|m=5|coverage=0.99|toposeed=1|syncerr=0|compact=false|sharded=false|faults=0", true},
		{"identical key", want, false},
		{"different grid", "sweep|protocols=opt,of|duties=0.10,0.20|seeds=3|m=5|coverage=0.99|toposeed=1|syncerr=0|compact=false|sharded=false|faults=0", false},
		{"unparseable duty", "sweep|protocols=opt,of|duties=0.10,zero|seeds=2|m=5|coverage=0.99|toposeed=1|syncerr=0|compact=false|sharded=false|faults=0", false},
		{"no duties segment", "sweep|protocols=opt,of|seeds=2|m=5", false},
		{"unterminated duties", "sweep|protocols=opt,of|duties=0.10,0.20", false},
	}
	for _, tc := range cases {
		if got := LegacyJournalKey(tc.stored, want); got != tc.legacy {
			t.Errorf("%s: LegacyJournalKey = %v, want %v", tc.name, got, tc.legacy)
		}
	}
}

// TestLegacyJournalKeyMatchesCompiledKey ties the detector to the real
// key format: a compiled grid's key with its duty segment rewritten to
// the pre-canonicalization spelling must be recognized as legacy.
func TestLegacyJournalKeyMatchesCompiledKey(t *testing.T) {
	grid, err := Compile(Spec{
		Protocols: []string{"opt"},
		Duties:    []float64{0.1, 0.2},
		Seeds:     1,
		M:         5,
		Coverage:  0.99,
		TopoSeed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := grid.JournalKey()
	const canon = "|duties=0.1,0.2|"
	if !strings.Contains(want, canon) {
		t.Fatalf("compiled key %q lacks canonical duty segment %q", want, canon)
	}
	legacy := strings.Replace(want, canon, "|duties=0.10,0.20|", 1)
	if !LegacyJournalKey(legacy, want) {
		t.Fatalf("legacy spelling of compiled key not detected:\nstored %q\nwant   %q", legacy, want)
	}
}

// Compile rejects duties whose period would overflow an int64 with an
// error naming the smallest accepted duty, and accepts a 1e-15 duty.
func TestCompileDutyRange(t *testing.T) {
	spec := func(d float64) Spec {
		return Spec{Protocols: []string{"opt"}, Duties: []float64{d}, Seeds: 1, M: 1, Coverage: 0.99, TopoSeed: 1}
	}
	if _, err := Compile(spec(1e-15)); err != nil {
		t.Fatalf("duty 1e-15 rejected: %v", err)
	}
	for _, d := range []float64{1e-19, 1e-300, 5e-324, 0, 1.5} {
		_, err := Compile(spec(d))
		if err == nil || !strings.Contains(err.Error(), "smallest accepted duty is 1e-18") {
			t.Fatalf("duty %v: err = %v, want the smallest-duty error", d, err)
		}
	}
}
