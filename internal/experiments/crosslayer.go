package experiments

import (
	"fmt"
	"math"

	"ldcflood/internal/metrics"
	"ldcflood/internal/optimize"
	"ldcflood/internal/schedule"
	"ldcflood/internal/topology"
)

// CrossLayer realizes the paper's second future-work item (Section VI):
// "explore how to utilize the opportunistic forwarding technique combined
// with the optimization of the duty cycle length to conduct a cross-layer
// design". It jointly sweeps duty cycle × protocol on the GreenOrbs trace,
// computes the networking gain (lifetime / flooding delay) for every
// combination, and reports the best joint configuration — demonstrating
// that the best (protocol, duty) pair beats optimizing either layer alone.
func CrossLayer(opts SimOptions) (*FigureData, error) {
	opts.normalize()
	g := topology.GreenOrbs(opts.TopoSeed)
	em := metrics.DefaultEnergyModel()

	fd := &FigureData{
		ID:     "crosslayer",
		Title:  fmt.Sprintf("Cross-layer design: networking gain vs duty cycle per protocol (GreenOrbs, M=%d)", opts.M),
		XLabel: "duty cycle (%)",
		YLabel: "networking gain (lifetime / flooding delay)",
	}
	type best struct {
		protocol string
		duty     float64
		gain     float64
		delay    float64
	}
	var overall best
	fd.TableHeaders = []string{"protocol", "best duty", "delay/slots", "lifetime/days", "gain"}
	for _, name := range opts.Protocols {
		var xs, ys []float64
		var rowBest best
		for _, duty := range opts.Duties {
			period := schedule.PeriodForDuty(duty)
			agg, err := runProtocol(g, name, period, opts)
			if err != nil {
				return nil, err
			}
			if agg.CoveredFraction < 1 || math.IsNaN(agg.Delay.Mean) {
				continue // configuration failed its coverage target
			}
			txRate := agg.Transmissions / float64(g.N()) /
				(agg.Delay.Mean * float64(opts.M) * em.SlotSeconds) // coarse per-node rate
			if txRate < 0 || math.IsNaN(txRate) || math.IsInf(txRate, 0) {
				txRate = 0
			}
			_, _, gain := em.NetworkingGain(duty, agg.Delay.Mean, txRate)
			xs = append(xs, duty*100)
			ys = append(ys, gain)
			if gain > rowBest.gain {
				rowBest = best{protocol: agg.Protocol, duty: duty, gain: gain, delay: agg.Delay.Mean}
			}
			if gain > overall.gain {
				overall = best{protocol: agg.Protocol, duty: duty, gain: gain, delay: agg.Delay.Mean}
			}
		}
		if len(xs) == 0 {
			return nil, fmt.Errorf("experiments: crosslayer: %s covered no configuration", name)
		}
		fd.Series = append(fd.Series, Series{Name: protoDisplayName(name), X: xs, Y: ys})
		lifetime, _, _ := em.NetworkingGain(rowBest.duty, rowBest.delay, 0)
		fd.TableRows = append(fd.TableRows, []string{
			protoDisplayName(name),
			fmt.Sprintf("%.0f%%", rowBest.duty*100),
			fmt.Sprintf("%.0f", rowBest.delay),
			fmt.Sprintf("%.0f", lifetime/86400),
			fmt.Sprintf("%.0f", rowBest.gain),
		})
	}
	fd.Notes = append(fd.Notes,
		fmt.Sprintf("joint optimum: %s at duty %.0f%% (gain %.0f) — the cross-layer choice of protocol and duty together",
			overall.protocol, overall.duty*100, overall.gain),
	)
	return fd, nil
}

func protoDisplayName(name string) string {
	switch name {
	case "opt":
		return "OPT"
	case "dbao":
		return "DBAO"
	case "of":
		return "OF"
	case "naive":
		return "Naive"
	default:
		return name
	}
}

// SimDelayFunc adapts the simulator to the optimizer's DelayFunc interface:
// each call runs the configured protocol on the GreenOrbs trace at the
// requested duty and returns the mean flooding delay. Results are cached
// per period so the optimizer's refinement phase stays affordable.
func SimDelayFunc(protocol string, opts SimOptions) optimize.DelayFunc {
	opts.normalize()
	g := topology.GreenOrbs(opts.TopoSeed)
	cache := map[int]float64{}
	return func(duty float64) (float64, error) {
		if err := schedule.CheckDuty(duty); err != nil {
			return 0, fmt.Errorf("experiments: %w", err)
		}
		period := schedule.PeriodForDuty(duty)
		if v, ok := cache[period]; ok {
			return v, nil
		}
		agg, err := runProtocol(g, protocol, period, opts)
		if err != nil {
			return 0, err
		}
		if math.IsNaN(agg.Delay.Mean) {
			return 0, fmt.Errorf("experiments: no packet covered at duty %v", duty)
		}
		cache[period] = agg.Delay.Mean
		return agg.Delay.Mean, nil
	}
}
