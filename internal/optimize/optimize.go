// Package optimize implements the paper's first future-work item: "figure
// out how to configure the duty cycle length such that the obtained
// networking gains can be maximized" (Section VI). It searches the duty
// cycle space for the configuration maximizing the networking gain
// (lifetime divided by flooding delay), with either the analytic delay
// predictor of Section IV-B or a simulation-backed evaluator supplying the
// delay curve.
package optimize

import (
	"fmt"
	"math"
	"sort"

	"ldcflood/internal/analysis"
	"ldcflood/internal/metrics"
	"ldcflood/internal/schedule"
)

// DelayFunc returns the expected flooding delay in slots at the given duty
// cycle. Implementations may be analytic (AnalyticDelay) or run the
// simulator (the caller wraps sim.Run).
type DelayFunc func(duty float64) (slots float64, err error)

// Config parameterizes the search.
type Config struct {
	// Energy is the node power model (zero value → DefaultEnergyModel).
	Energy metrics.EnergyModel
	// TxPerSecond is the average per-node transmission rate used in the
	// lifetime computation.
	TxPerSecond float64
	// MinDuty/MaxDuty bracket the search (defaults 0.005 and 1).
	MinDuty, MaxDuty float64
	// Samples is the number of log-spaced duty cycles evaluated before the
	// local refinement (default 24).
	Samples int
	// Refinements is the number of golden-section refinement steps around
	// the best sample (default 20).
	Refinements int
}

func (c *Config) normalize() error {
	if c.Energy == (metrics.EnergyModel{}) {
		c.Energy = metrics.DefaultEnergyModel()
	}
	if c.MinDuty == 0 {
		c.MinDuty = 0.005
	}
	if c.MaxDuty == 0 {
		c.MaxDuty = 1
	}
	if c.MinDuty <= 0 || c.MaxDuty > 1 || c.MinDuty >= c.MaxDuty {
		return fmt.Errorf("optimize: bad duty bracket [%v, %v]", c.MinDuty, c.MaxDuty)
	}
	if c.TxPerSecond < 0 {
		return fmt.Errorf("optimize: negative tx rate")
	}
	if c.Samples <= 1 {
		c.Samples = 24
	}
	if c.Refinements <= 0 {
		c.Refinements = 20
	}
	return nil
}

// Point is one evaluated duty cycle.
type Point struct {
	Duty     float64
	Period   int
	Delay    float64 // slots
	Lifetime float64 // seconds
	Gain     float64 // lifetime / delay(seconds)
}

// Result is the outcome of a search.
type Result struct {
	Best Point
	// Curve holds every coarse sample, ascending in duty, for plotting.
	Curve []Point
}

// Maximize finds the duty cycle with the highest networking gain. The delay
// function is evaluated on a log-spaced grid over [MinDuty, MaxDuty], then
// a golden-section search refines around the best grid point.
func Maximize(cfg Config, delay DelayFunc) (*Result, error) {
	if delay == nil {
		return nil, fmt.Errorf("optimize: nil delay function")
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	eval := func(duty float64) (Point, error) {
		slots, err := delay(duty)
		if err != nil {
			return Point{}, fmt.Errorf("optimize: delay at duty %v: %w", duty, err)
		}
		lifetime, _, gain := cfg.Energy.NetworkingGain(duty, slots, cfg.TxPerSecond)
		return Point{
			Duty:     duty,
			Period:   schedule.PeriodForDuty(duty),
			Delay:    slots,
			Lifetime: lifetime,
			Gain:     gain,
		}, nil
	}

	res := &Result{}
	logLo, logHi := math.Log(cfg.MinDuty), math.Log(cfg.MaxDuty)
	bestIdx := 0
	for i := 0; i < cfg.Samples; i++ {
		duty := math.Exp(logLo + (logHi-logLo)*float64(i)/float64(cfg.Samples-1))
		p, err := eval(duty)
		if err != nil {
			return nil, err
		}
		res.Curve = append(res.Curve, p)
		if !math.IsNaN(p.Gain) && p.Gain > res.Curve[bestIdx].Gain {
			bestIdx = i
		}
	}
	sort.Slice(res.Curve, func(i, j int) bool { return res.Curve[i].Duty < res.Curve[j].Duty })
	// Recover bestIdx after sorting (duties are unique by construction).
	best := res.Curve[0]
	for _, p := range res.Curve {
		if !math.IsNaN(p.Gain) && p.Gain > best.Gain {
			best = p
		}
	}

	// Golden-section refinement on the bracket around the best sample.
	lo, hi := cfg.MinDuty, cfg.MaxDuty
	for _, p := range res.Curve {
		if p.Duty < best.Duty {
			lo = p.Duty
		}
		if p.Duty > best.Duty && hi == cfg.MaxDuty {
			hi = p.Duty
		}
	}
	const invPhi = 0.6180339887498949
	a, b := lo, hi
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	p1, err := eval(x1)
	if err != nil {
		return nil, err
	}
	p2, err := eval(x2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Refinements; i++ {
		if gainOf(p1) >= gainOf(p2) {
			b, x2, p2 = x2, x1, p1
			x1 = b - invPhi*(b-a)
			if p1, err = eval(x1); err != nil {
				return nil, err
			}
		} else {
			a, x1, p1 = x1, x2, p2
			x2 = a + invPhi*(b-a)
			if p2, err = eval(x2); err != nil {
				return nil, err
			}
		}
	}
	for _, p := range []Point{p1, p2} {
		if !math.IsNaN(p.Gain) && p.Gain > best.Gain {
			best = p
		}
	}
	res.Best = best
	return res, nil
}

func gainOf(p Point) float64 {
	if math.IsNaN(p.Gain) {
		return math.Inf(-1)
	}
	return p.Gain
}

// MinDutyForDelayBudget finds the lowest duty cycle (longest lifetime)
// whose flooding delay stays within budgetSlots — the delay-constrained
// formulation of duty-cycle configuration that the paper's related work
// ([21], [22]/DutyCon) studies and that Section VI calls for. It assumes
// delay is non-increasing in duty (true for every model here) and bisects.
// It returns an error if even MaxDuty cannot meet the budget.
func MinDutyForDelayBudget(cfg Config, delay DelayFunc, budgetSlots float64) (Point, error) {
	if delay == nil {
		return Point{}, fmt.Errorf("optimize: nil delay function")
	}
	if budgetSlots <= 0 {
		return Point{}, fmt.Errorf("optimize: non-positive delay budget")
	}
	if err := cfg.normalize(); err != nil {
		return Point{}, err
	}
	atMax, err := delay(cfg.MaxDuty)
	if err != nil {
		return Point{}, err
	}
	if atMax > budgetSlots {
		return Point{}, fmt.Errorf("optimize: budget %v slots unreachable (delay %v at duty %v)", budgetSlots, atMax, cfg.MaxDuty)
	}
	lo, hi := cfg.MinDuty, cfg.MaxDuty
	if d, err := delay(lo); err != nil {
		return Point{}, err
	} else if d <= budgetSlots {
		hi = lo // even the minimum duty meets the budget
	}
	for i := 0; i < 60 && hi-lo > 1e-9; i++ {
		mid := (lo + hi) / 2
		d, err := delay(mid)
		if err != nil {
			return Point{}, err
		}
		if d <= budgetSlots {
			hi = mid
		} else {
			lo = mid
		}
	}
	slots, err := delay(hi)
	if err != nil {
		return Point{}, err
	}
	lifetime, _, gain := cfg.Energy.NetworkingGain(hi, slots, cfg.TxPerSecond)
	return Point{
		Duty:     hi,
		Period:   schedule.PeriodForDuty(hi),
		Delay:    slots,
		Lifetime: lifetime,
		Gain:     gain,
	}, nil
}

// AnalyticDelay builds a DelayFunc from the Section IV-B predictor plus the
// Theorem 1 multi-packet blocking term: the per-packet delay of flooding M
// packets is approximately the single-packet k-class prediction plus the
// pipeline occupancy (T/2 per queued packet beyond the blocking window).
// n is the sensor count, linkQuality the network mean PRR.
func AnalyticDelay(n int, linkQuality, coverage float64, m int) (DelayFunc, error) {
	if n < 1 {
		return nil, fmt.Errorf("optimize: n = %d", n)
	}
	if linkQuality <= 0 || linkQuality > 1 {
		return nil, fmt.Errorf("optimize: link quality %v outside (0,1]", linkQuality)
	}
	if coverage <= 0 || coverage > 1 {
		return nil, fmt.Errorf("optimize: coverage %v outside (0,1]", coverage)
	}
	if m < 1 {
		return nil, fmt.Errorf("optimize: m = %d", m)
	}
	k := analysis.KClass(linkQuality)
	return func(duty float64) (float64, error) {
		if err := schedule.CheckDuty(duty); err != nil {
			return 0, err
		}
		period := schedule.PeriodForDuty(duty)
		single := analysis.PredictedDelay(n, coverage, k, period)
		// Mean queueing contribution over the M packets: packet p waits for
		// min(p, blockingWindow) predecessors at ~k·T/2 each.
		window := float64(analysis.BlockingWindow(n))
		var queue float64
		for p := 0; p < m; p++ {
			w := float64(p)
			if w > window {
				w = window
			}
			queue += w * k * float64(period) / 2
		}
		queue /= float64(m)
		return single + queue, nil
	}, nil
}
