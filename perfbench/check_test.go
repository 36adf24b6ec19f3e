package main

import (
	"strings"
	"testing"
)

func TestReferenceDetectsTamperedDigest(t *testing.T) {
	ref, err := loadReference(referenceFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		want := ref[w.name]
		if len(want) == 0 {
			t.Errorf("%s: no reference digests committed", w.name)
			continue
		}
		if m, n := matchReference(ref, w.name, want); m != n || n != len(want) {
			t.Errorf("%s: reference matches itself %d/%d", w.name, m, n)
		}
		tampered := append([]string(nil), want...)
		i := len(tampered) / 2
		tampered[i] = strings.Repeat("0", len(tampered[i]))
		if m, n := matchReference(ref, w.name, tampered); m != n-1 {
			t.Errorf("%s: tampered digest not detected: %d/%d match", w.name, m, n)
		}
		if m, n := matchReference(ref, w.name, want[1:]); m != 0 || n != 0 {
			t.Errorf("%s: a grid of another shape matched %d/%d", w.name, m, n)
		}
	}
}

func TestGate(t *testing.T) {
	ok := tally{Completed: true, Transmissions: 120, Failures: 20, Overheard: 0, CoverNodes: 11, M: 10}
	if why := gate(ok); why != "" {
		t.Errorf("valid tally rejected: %s", why)
	}
	for name, bad := range map[string]tally{
		"incomplete":     {Transmissions: 120, CoverNodes: 11, M: 10},
		"failures":       {Completed: true, Transmissions: 5, Failures: 6, CoverNodes: 1, M: 1},
		"short delivery": {Completed: true, Transmissions: 100, Failures: 1, CoverNodes: 11, M: 10},
	} {
		if gate(bad) == "" {
			t.Errorf("%s: gate accepted %+v", name, bad)
		}
	}
	if digest([]string{"a", "b"}) == digest([]string{"a", "b"}, "trace") {
		t.Error("digest ignores the extra artifact")
	}
}
