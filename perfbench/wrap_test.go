package main

import (
	"io"
	"reflect"
	"testing"

	"ldcflood/internal/flood"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
	"ldcflood/internal/tracebin"
)

func TestWrapperImplementsShardPlannerExactlyWhenInnerDoes(t *testing.T) {
	protos := []sim.Protocol{&sim.FuncProtocol{}}
	for _, name := range append(flood.Names(), "flash") {
		p, err := flood.New(name)
		if err != nil {
			t.Fatal(err)
		}
		protos = append(protos, p)
	}
	for _, p := range protos {
		_, inner := p.(sim.ShardPlanner)
		_, outer := wrapProtocol(p, new(callTimes)).(sim.ShardPlanner)
		if inner != outer {
			t.Errorf("%s: inner ShardPlanner %v, wrapped %v", p.Name(), inner, outer)
		}
	}
}

func TestWrapperAndObserverLeaveResultsIdentical(t *testing.T) {
	g := topology.GreenOrbs(3)
	scheds := schedule.AssignUniform(g.N(), 10, rngutil.New(3).SubName("schedule"))
	for _, name := range []string{"opt", "dbao", "of", "trickle", "dflood"} {
		for _, workers := range []int{0, 2} {
			cfg := func(p sim.Protocol, obs sim.Observer) sim.Config {
				return sim.Config{Graph: g, Schedules: scheds, Protocol: p, M: 5, Seed: 9,
					CompactTime: true, Workers: workers, Observer: obs}
			}
			plain, err := flood.New(name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.Run(cfg(plain, nil))
			if err != nil {
				t.Fatal(err)
			}
			inner, _ := flood.New(name)
			var ct callTimes
			obs := &timedObserver{inner: tracebin.NewWriter(io.Discard)}
			got, err := sim.Run(cfg(wrapProtocol(inner, &ct), obs))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: wrapped result differs", name, workers)
			}
			if ct.reset.calls.Load() != 1 || ct.intents.calls.Load()+ct.plan.calls.Load() == 0 {
				t.Errorf("%s workers=%d: wrapper saw reset %d, intents %d, plan %d calls", name, workers,
					ct.reset.calls.Load(), ct.intents.calls.Load(), ct.plan.calls.Load())
			}
			if want := int64(2*got.M + got.Transmissions + got.Overheard); obs.events != want {
				t.Errorf("%s workers=%d: observer saw %d events, want %d", name, workers, obs.events, want)
			}
		}
	}
}
