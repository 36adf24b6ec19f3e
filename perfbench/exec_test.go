package main

import (
	"reflect"
	"testing"

	"ldcflood/internal/flood"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// TestExecuteTracedMatchesUntraced runs one small batch plain and fully
// instrumented: results must be identical, every job's interval must be
// recovered from the runner's progress stream, and the tracer must see
// the paths the cells take.
func TestExecuteTracedMatchesUntraced(t *testing.T) {
	g := topology.GreenOrbs(canonicalTopoSeed)
	cells := func() []sim.Config {
		var cfgs []sim.Config
		for i, name := range []string{"opt", "dbao", "opt", "dbao", "trickle"} {
			p, err := flood.New(name)
			if err != nil {
				t.Fatal(err)
			}
			seed := uint64(i + 1)
			cfgs = append(cfgs, sim.Config{
				Graph: g, Protocol: p, M: 5, Coverage: coverage, Seed: seed, CompactTime: true,
				Schedules: schedule.AssignUniform(g.N(), 10, rngutil.New(seed).SubName("schedule")),
				Workers:   2 * (i % 2), // dbao cells take the sharded path
			})
		}
		return cfgs
	}
	plain, err := execute(cells(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(newRecorder(), -1)
	traced, err := execute(cells(), tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.rs {
		if plain.rs[i].Err != nil || traced.rs[i].Err != nil {
			t.Fatalf("cell %d failed: %v / %v", i, plain.rs[i].Err, traced.rs[i].Err)
		}
		if !reflect.DeepEqual(plain.rs[i].Res, traced.rs[i].Res) {
			t.Errorf("cell %d: traced result differs", i)
		}
		for _, b := range []batch{plain, traced} {
			if s := b.spans[i]; !s.Known || s.End <= s.Start {
				t.Errorf("cell %d: interval %+v", i, s)
			}
		}
	}
	for name, want := range map[string]float64{"sim.path_sharded": 2, "sim.path_compact": 5} {
		if got := tr.layers[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if tr.layers["flood.calls"] == 0 || tr.layers["flood.plan_s"] == 0 || tr.layers["sim.shard.work_s"] == 0 {
		t.Errorf("instrumentation saw no work: %v", tr.layers)
	}
}
