// Package adaptive implements online plan maintenance, the dynamic
// scenario Section 5.3 defers to: stream rates and operator selectivity
// drift over time, so the profiled statistics feeding RLAS go stale and
// the application needs re-optimization. The Advisor ingests periodic
// rate snapshots from a running engine (or simulator), re-estimates
// per-operator selectivity from observed rates, detects drift against
// the statistics the current plan was optimized with, and — when the
// model predicts a sufficiently better plan under the fresh statistics —
// recommends re-optimization.
//
// The Advisor never migrates a running job itself (BriskStream plans are
// generated for the lifetime of an application); it produces the new
// plan for the operator to roll over.
package adaptive

import (
	"fmt"
	"math"
	"sort"
	"time"

	"briskstream/internal/bnb"
	"briskstream/internal/graph"
	"briskstream/internal/model"
	"briskstream/internal/numa"
	"briskstream/internal/profile"
	"briskstream/internal/rlas"
)

// Observation is one snapshot of cumulative processed counts.
type Observation struct {
	Processed map[string]uint64
	At        time.Time
}

// Config tunes the advisor.
type Config struct {
	// Machine is the target machine of re-optimizations.
	Machine *numa.Machine
	// Drift is the relative selectivity change that counts as stale
	// statistics (default 0.2 = 20%).
	Drift float64
	// Gain is the minimum predicted relative throughput improvement
	// that justifies re-optimization (default 0.1 = 10%).
	Gain float64
	// Backpressure is the queue-wait-to-service-time ratio past which an
	// operator counts as backpressured: when its input batches spent
	// more than Backpressure times the operator's own processing time
	// waiting in queues over the last profiling interval, the operator
	// is treated as drifted even if Te and selectivity still match the
	// baseline — sustained queueing means the plan under-provisioned it.
	// Default 4; negative disables the signal.
	Backpressure float64
	// Optimizer tunes the RLAS run used for recommendations.
	Optimizer OptimizerConfig
}

// OptimizerConfig tunes the RLAS search inside Evaluate.
type OptimizerConfig struct {
	Compress      int
	NodeLimit     int
	MaxIterations int
	// FixedSpouts pins spout replication during the scaling loop — set
	// it when recommendations must be adoptable by a live engine, whose
	// source replica count (and replay offsets) cannot change online.
	FixedSpouts bool
}

// Advisor watches one application.
type Advisor struct {
	app     *graph.Graph
	stats   profile.Set // statistics the current plan was built with
	current *rlas.Result
	cfg     Config

	history    []Observation
	engHistory []profile.EngineSnapshot
	outcomes   outcomeLog // predicted-vs-realized gains of adopted rescales
}

// New creates an advisor for an application running under the given
// plan, which was optimized with the given statistics.
func New(app *graph.Graph, stats profile.Set, current *rlas.Result, cfg Config) (*Advisor, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if cfg.Machine == nil {
		return nil, fmt.Errorf("adaptive: machine required")
	}
	if cfg.Drift <= 0 {
		cfg.Drift = 0.2
	}
	if cfg.Gain <= 0 {
		cfg.Gain = 0.1
	}
	if cfg.Backpressure == 0 {
		cfg.Backpressure = 4
	}
	if cfg.Optimizer.Compress <= 0 {
		cfg.Optimizer.Compress = 5
	}
	if cfg.Optimizer.NodeLimit <= 0 {
		cfg.Optimizer.NodeLimit = 1000
	}
	if cfg.Optimizer.MaxIterations <= 0 {
		cfg.Optimizer.MaxIterations = 20
	}
	return &Advisor{app: app, stats: stats.Clone(), current: current, cfg: cfg}, nil
}

// Record ingests a snapshot. Snapshots must be monotonically timestamped.
func (a *Advisor) Record(o Observation) error {
	if len(a.history) > 0 && !o.At.After(a.history[len(a.history)-1].At) {
		return fmt.Errorf("adaptive: observation timestamps must increase")
	}
	a.history = append(a.history, o)
	if len(a.history) > 16 {
		a.history = a.history[1:]
	}
	return nil
}

// Rates derives per-operator processing rates (tuples/sec) from the two
// most recent observations.
func (a *Advisor) Rates() (map[string]float64, error) {
	if len(a.history) < 2 {
		return nil, fmt.Errorf("adaptive: need at least two observations")
	}
	prev, cur := a.history[len(a.history)-2], a.history[len(a.history)-1]
	dt := cur.At.Sub(prev.At).Seconds()
	if dt <= 0 {
		return nil, fmt.Errorf("adaptive: non-positive observation window")
	}
	rates := map[string]float64{}
	for op, n := range cur.Processed {
		rates[op] = float64(n-prev.Processed[op]) / dt
	}
	return rates, nil
}

// ObservedStats re-estimates operator statistics from live data. When
// the advisor has engine profile snapshots (RecordEngine), the measured
// deltas win: Te, N, and selectivity come straight from the engine's
// per-batch counters via profile.FromEngine. Otherwise it falls back to
// the rate heuristic: for every operator whose consumers each have it
// as their only producer, the observed total selectivity is the ratio
// of consumer arrival rate to its own processing rate, redistributed
// over its output streams in the proportions of the original profile;
// Te/M/N are retained.
func (a *Advisor) ObservedStats() (profile.Set, error) {
	if set, ok, err := a.engineStats(); err != nil {
		return nil, err
	} else if ok {
		return set, nil
	}
	rates, err := a.Rates()
	if err != nil {
		return nil, err
	}
	out := a.stats.Clone()
	for _, n := range a.app.Nodes() {
		rate := rates[n.Name]
		if rate <= 0 || n.IsSink {
			continue
		}
		// Sum consumer arrival attributable to this operator: only
		// well-defined when each consumer has this operator as its only
		// producer.
		var consumed float64
		attributable := true
		consumers := a.app.Consumers(n.Name)
		if len(consumers) == 0 {
			continue
		}
		for _, c := range consumers {
			if len(a.app.Producers(c)) != 1 {
				attributable = false
				break
			}
			consumed += rates[c]
		}
		if !attributable {
			continue
		}
		observedSel := consumed / rate
		st := out[n.Name]
		prevTotal := st.TotalSelectivity()
		if prevTotal <= 0 {
			continue
		}
		scale := observedSel / prevTotal
		sel := map[string]float64{}
		for s, v := range st.Selectivity {
			sel[s] = v * scale
		}
		st.Selectivity = sel
		out[n.Name] = st
	}
	return out, nil
}

// Drifted lists operators whose observed statistics deviate from the
// profiled baseline by more than the configured drift threshold —
// total selectivity always, per-tuple execution time when it was
// live-measured (engine snapshots) — plus any operator the measured
// queue-wait marks as backpressured (see Config.Backpressure), sorted
// by name.
func (a *Advisor) Drifted() ([]string, error) {
	observed, err := a.ObservedStats()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	for op, st := range observed {
		base := a.stats[op]
		old := base.TotalSelectivity()
		selDrift := old > 0 && math.Abs(st.TotalSelectivity()-old)/old > a.cfg.Drift
		teDrift := base.Te > 0 && math.Abs(st.Te-base.Te)/base.Te > a.cfg.Drift
		if selDrift || teDrift {
			seen[op] = true
			out = append(out, op)
		}
	}
	for _, op := range a.Backpressured() {
		if !seen[op] {
			out = append(out, op)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Recommendation is the advisor's verdict.
type Recommendation struct {
	// Reoptimize reports whether rolling over to Plan is worthwhile.
	Reoptimize bool
	// Plan is the new RLAS result under the observed statistics (nil
	// when Reoptimize is false).
	Plan *rlas.Result
	// CurrentPredicted and NewPredicted are the modelled throughputs of
	// the running plan and the recommended plan under the observed
	// statistics.
	CurrentPredicted, NewPredicted float64
	// DriftedOperators lists what changed.
	DriftedOperators []string
}

// Evaluate re-optimizes under the observed statistics and compares
// against the running plan evaluated under the same statistics.
func (a *Advisor) Evaluate() (*Recommendation, error) {
	drifted, err := a.Drifted()
	if err != nil {
		return nil, err
	}
	observed, err := a.ObservedStats()
	if err != nil {
		return nil, err
	}
	rec := &Recommendation{DriftedOperators: drifted}

	// Current plan under fresh statistics.
	mcfg := &model.Config{Machine: a.cfg.Machine, Stats: observed, Ingress: model.Saturated}
	curEval, err := model.Evaluate(a.current.Graph, a.current.Placement, mcfg, model.Options{})
	if err != nil {
		return nil, err
	}
	rec.CurrentPredicted = curEval.Throughput

	if len(drifted) == 0 {
		return rec, nil // nothing changed; skip the expensive search
	}

	seed, err := rlas.SeedReplication(a.app, observed, a.cfg.Machine.TotalCores(), 0.7)
	if err != nil {
		return nil, err
	}
	fresh, err := rlas.Optimize(a.app, rlas.Config{
		Model:         mcfg,
		Compress:      a.cfg.Optimizer.Compress,
		BnB:           bnb.Config{NodeLimit: a.cfg.Optimizer.NodeLimit},
		Initial:       seed,
		MaxIterations: a.cfg.Optimizer.MaxIterations,
		FixedSpouts:   a.cfg.Optimizer.FixedSpouts,
	})
	if err != nil {
		return nil, err
	}
	rec.NewPredicted = fresh.Eval.Throughput
	if rec.NewPredicted > rec.CurrentPredicted*(1+a.cfg.Gain) {
		rec.Reoptimize = true
		rec.Plan = fresh
	}
	return rec, nil
}
