package main

import (
	"sync/atomic"
	"time"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/sim"
)

// timing sums the calls of one method. PlanReceiver runs on the sharded
// engine's worker pool, so both fields are atomic.
type timing struct {
	ns, calls atomic.Int64
}

func (t *timing) since(t0 time.Time) {
	t.ns.Add(int64(time.Since(t0)))
	t.calls.Add(1)
}

// callTimes is one cell's protocol time by method.
type callTimes struct {
	reset, intents, plan, sel timing
}

// timedProtocol forwards every sim.Protocol method to inner and times it.
// It changes no argument and no return value, so results are identical
// with and without it.
type timedProtocol struct {
	inner sim.Protocol
	t     *callTimes
}

func (p *timedProtocol) Name() string          { return p.inner.Name() }
func (p *timedProtocol) CollisionsApply() bool { return p.inner.CollisionsApply() }
func (p *timedProtocol) Overhears() bool       { return p.inner.Overhears() }

func (p *timedProtocol) Reset(w *sim.World) {
	t0 := time.Now()
	p.inner.Reset(w)
	p.t.reset.since(t0)
}

func (p *timedProtocol) Intents(w *sim.World) []sim.Intent {
	t0 := time.Now()
	in := p.inner.Intents(w)
	p.t.intents.since(t0)
	return in
}

// timedPlanner adds the sim.ShardPlanner methods. The engine switches to
// parallel intent planning when the protocol implements ShardPlanner, so
// the wrapper must implement it exactly when inner does.
type timedPlanner struct {
	*timedProtocol
	planner sim.ShardPlanner
}

func (p *timedPlanner) PlanReceiver(w *sim.World, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	t0 := time.Now()
	out := p.planner.PlanReceiver(w, r, slot, buf)
	p.t.plan.since(t0)
	return out
}

func (p *timedPlanner) SelectIntents(w *sim.World, plan *sim.SlotPlan, emit func(in sim.Intent, prr float64)) {
	t0 := time.Now()
	p.planner.SelectIntents(w, plan, emit)
	p.t.sel.since(t0)
}

// wrapProtocol returns the timing wrapper for p.
func wrapProtocol(p sim.Protocol, t *callTimes) sim.Protocol {
	tp := &timedProtocol{inner: p, t: t}
	if sp, ok := p.(sim.ShardPlanner); ok {
		return &timedPlanner{timedProtocol: tp, planner: sp}
	}
	return tp
}

// timedObserver forwards engine events to inner and sums the time inner
// spends on them. The engine calls observers from one goroutine per run.
type timedObserver struct {
	inner  sim.Observer
	busyNS int64
	events int64
}

func (o *timedObserver) done(t0 time.Time) {
	o.busyNS += int64(time.Since(t0))
	o.events++
}

func (o *timedObserver) OnInject(t int64, packet int) {
	t0 := time.Now()
	o.inner.OnInject(t, packet)
	o.done(t0)
}

func (o *timedObserver) OnTransmit(t int64, from, to, packet int, outcome sim.TxOutcome) {
	t0 := time.Now()
	o.inner.OnTransmit(t, from, to, packet, outcome)
	o.done(t0)
}

func (o *timedObserver) OnOverhear(t int64, from, node, packet int) {
	t0 := time.Now()
	o.inner.OnOverhear(t, from, node, packet)
	o.done(t0)
}

func (o *timedObserver) OnCovered(t int64, packet int) {
	t0 := time.Now()
	o.inner.OnCovered(t, packet)
	o.done(t0)
}
