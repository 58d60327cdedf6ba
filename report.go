package parbitonic

import (
	"fmt"
	"math"
	"strings"

	"parbitonic/internal/intbits"
	"parbitonic/internal/logp"
	"parbitonic/internal/schedule"
)

// DriftQuantity pairs one measured run quantity with its closed-form
// model prediction (§3.4). Drift is the measured/predicted ratio: 1.0
// means the run matched the analysis exactly, values away from 1 flag
// model drift — an implementation that communicates more than the
// paper says it should, or a model that no longer describes the code.
type DriftQuantity struct {
	Name      string // "remaps", "volume", "messages", "comm-time"
	Measured  float64
	Predicted float64
}

// Drift returns Measured/Predicted. A zero prediction yields 1 when
// the measurement is also zero (both agree: nothing happened) and +Inf
// otherwise.
func (q DriftQuantity) Drift() float64 {
	if q.Predicted == 0 {
		if q.Measured == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return q.Measured / q.Predicted
}

// SortReport is the model-drift report for one completed sort: the
// run's measured communication metrics paired against the paper's
// closed-form LogP/LogGP predictions for the same configuration.
// Delivered through Config.Observe.
//
// Which quantities appear depends on the configuration:
//
//   - remaps, volume, messages: the three §3.4 metrics, predicted for
//     the bitonic algorithms (for Blocked-Merge the remote steps are
//     pairwise exchanges rather than remaps, so only volume and
//     messages are comparable);
//   - comm-time: per-processor communication time against the
//     TotalShort/TotalLong closed forms — simulator runs only, since
//     native transfers are zero-copy shared-memory handoffs the model
//     does not describe.
//
// Quantities is empty (with Note saying why) when no closed form
// applies: sample sort, radix sort, or a single-processor run.
type SortReport struct {
	Algorithm  Algorithm
	Backend    Backend
	Processors int
	Keys       int
	Result     Result
	Quantities []DriftQuantity
	Note       string // why Quantities is empty, when it is

	// Plan is the autotuner decision that shaped this run, when the
	// sort was configured with Config.Auto (nil otherwise). Auto runs
	// carry one extra drift quantity, "plan-time": measured run time
	// against the plan's predicted cost, so mispredictions are visible
	// in the same report as model drift.
	Plan *Plan
}

// MaxDrift returns the largest relative deviation |measured -
// predicted| / predicted over all quantities (0 for an empty report).
// A healthy simulator run reports ~0; a native run reports the real
// machine's distance from the model.
func (r SortReport) MaxDrift() float64 {
	worst := 0.0
	for _, q := range r.Quantities {
		var dev float64
		if q.Predicted == 0 {
			if q.Measured == 0 {
				continue
			}
			dev = math.Inf(1)
		} else {
			dev = math.Abs(q.Measured-q.Predicted) / q.Predicted
		}
		if dev > worst {
			worst = dev
		}
	}
	return worst
}

// String renders the report as a fixed-width table.
func (r SortReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model-drift report: %v on %v, P=%d, keys=%d\n",
		r.Algorithm, r.Backend, r.Processors, r.Keys)
	if len(r.Quantities) == 0 {
		note := r.Note
		if note == "" {
			note = "no predictions"
		}
		fmt.Fprintf(&b, "  %s\n", note)
		return b.String()
	}
	fmt.Fprintf(&b, "  %-10s %14s %14s %10s\n", "quantity", "measured", "predicted", "drift")
	for _, q := range r.Quantities {
		fmt.Fprintf(&b, "  %-10s %14.6g %14.6g %10.4f\n", q.Name, q.Measured, q.Predicted, q.Drift())
	}
	return b.String()
}

// buildReport evaluates the §3.4 closed forms for the configuration
// that just ran and pairs them with the measured result. total is the
// run's key count (already validated: total = n·P with n and P powers
// of two); words is the element width in 4-byte words — volume and
// message predictions stay in elements (the §3.4 counters), while the
// comm-time closed form scales its volume term by the element width,
// matching what the simulator charges per transferred word.
func buildReport(cfg Config, total, words int, res Result) SortReport {
	rep := SortReport{
		Algorithm:  cfg.Algorithm,
		Backend:    cfg.Backend,
		Processors: cfg.Processors,
		Keys:       total,
		Result:     res,
	}
	p := cfg.Processors
	if p <= 1 {
		rep.Note = "single processor: no communication to predict"
		return rep
	}
	n := total / p
	if n < 2 {
		rep.Note = "fewer than two keys per processor: schedule degenerate"
		return rep
	}
	lgP := intbits.Log2(p)
	lgN := intbits.Log2(total)

	var m logp.Metrics
	withRemaps := true
	switch cfg.Algorithm {
	case SmartBitonic:
		sched := schedule.New(lgN, lgP, cfg.Sim.Strategy.schedule())
		m = logp.Metrics{
			Name: "smart",
			R:    len(sched),
			V:    schedule.Volume(sched, n),
			M:    schedule.Messages(sched),
		}
	case CyclicBlockedBitonic:
		m = logp.CyclicBlocked(lgP, n)
	case BlockedMergeBitonic:
		// The model's R counts remote compare-split steps; the runtime
		// executes them as pairwise exchanges, which the Remaps counter
		// does not cover. Volume and messages remain comparable.
		m = logp.Blocked(lgP, n)
		withRemaps = false
	default:
		rep.Note = fmt.Sprintf("no closed-form prediction for %v", cfg.Algorithm)
		return rep
	}

	if withRemaps {
		rep.Quantities = append(rep.Quantities, DriftQuantity{
			Name: "remaps", Measured: float64(res.Remaps), Predicted: float64(m.R),
		})
	}
	rep.Quantities = append(rep.Quantities,
		DriftQuantity{Name: "volume", Measured: float64(res.VolumeSent), Predicted: float64(m.V)},
		DriftQuantity{Name: "messages", Measured: float64(res.MessagesSent), Predicted: float64(m.M)},
	)
	if cfg.Backend == Simulated {
		params := machineConfig(cfg).Model
		tm := m
		tm.V *= words
		pred := tm.LongTime(params)
		if cfg.Sim.ShortMessages {
			pred = tm.ShortTime(params)
		}
		rep.Quantities = append(rep.Quantities, DriftQuantity{
			Name: "comm-time", Measured: res.TransferTime, Predicted: pred,
		})
	}
	return rep
}
