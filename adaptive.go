package briskstream

// The autoscaler: the closed profile → plan → rescale loop. Run with
// RunConfig.Adaptive periodically snapshots the engine's live profiling
// counters, reduces them into the statistics RLAS consumes, and asks
// the adaptive Advisor whether a re-optimized plan beats the running
// one by more than the configured gain. When it does, the engine is
// rolled over online: an aligned checkpoint is triggered, its keyed
// state re-sharded onto the recommended replication, and a fresh engine
// restores the cut and replays the sources — so the rescaled run's
// output is exactly the output of a static run.

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"briskstream/internal/adaptive"
	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
)

// AdaptiveConfig enables and tunes the autoscaler.
type AdaptiveConfig struct {
	// Machine is the optimization target. Nil defaults to a model of
	// the machine under us, built from the detected NUMA topology
	// (HostMachine) — the right target when the plan will execute here.
	Machine *Machine
	// Stats supplies the baseline operator statistics the initial plan
	// is optimized with (required); live profiling refines them.
	Stats map[string]OperatorStats
	// Interval is the profiling/evaluation period (default 200ms).
	Interval time.Duration
	// Drift is the relative statistics change that counts as stale
	// (default 0.2); Gain the minimum predicted relative improvement
	// that justifies a rescale (default 0.1).
	Drift, Gain float64
	// MaxRescales bounds online rollovers (default 2).
	MaxRescales int
	// OnDecision observes every advisor verdict (optional; called on
	// the autoscaler's control goroutine).
	OnDecision func(AdaptiveDecision)
}

// AdaptiveDecision reports one advisor evaluation.
type AdaptiveDecision struct {
	// Rescaled reports whether the engine was rolled onto Replication.
	Rescaled bool
	// Replication is the recommended replica count per operator (nil
	// when the advisor saw no drift).
	Replication map[string]int
	// CurrentPredicted and NewPredicted are modelled throughputs of the
	// running and recommended plans under the observed statistics.
	CurrentPredicted, NewPredicted float64
	// Drifted lists the operators whose statistics moved.
	Drifted []string
	// Err reports a failed rescale attempt (the run continues).
	Err error
}

// runAdaptive executes the topology under the autoscaler.
func (t *Topology) runAdaptive(cfg RunConfig) (*RunResult, error) {
	ac := cfg.Adaptive
	if ac.Stats == nil {
		return nil, fmt.Errorf("briskstream: Adaptive requires Stats")
	}
	machine := ac.Machine
	if machine == nil {
		machine = HostMachine()
	}
	interval := ac.Interval
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	maxRescales := ac.MaxRescales
	if maxRescales <= 0 {
		maxRescales = 2
	}

	// Initial plan: RLAS under the baseline statistics, with ingress
	// points pinned (a live source cannot be split or merged).
	p, err := t.Optimize(OptimizeConfig{Machine: machine, Stats: ac.Stats, FixedSpouts: true})
	if err != nil {
		return nil, err
	}
	repl := t.pinnedReplication(p.Replication, cfg)
	advisor, err := adaptive.New(t.g, p.stats, p.inner, adaptive.Config{
		Machine: machine, Drift: ac.Drift, Gain: ac.Gain,
		Optimizer: adaptive.OptimizerConfig{FixedSpouts: true},
	})
	if err != nil {
		return nil, err
	}

	co := cfg.Checkpoint
	if co == nil {
		// Unlike plain checkpointed runs, the autoscaler itself consumes
		// the checkpoints (they are the migration vehicle), so an
		// internal coordinator is not dead weight.
		co = checkpoint.NewCoordinator(nil)
	}
	ecfg := engine.DefaultConfig()
	if cfg.BatchSize > 0 {
		ecfg.BatchSize = cfg.BatchSize
	}
	if cfg.QueueCapacity > 0 {
		ecfg.QueueCapacity = cfg.QueueCapacity
	}
	if cfg.Linger != 0 {
		ecfg.Linger = max(cfg.Linger, 0)
	}
	ecfg.Checkpoint = co
	ecfg.CheckpointInterval = cfg.CheckpointInterval
	ecfg.AlignTimeout = cfg.AlignTimeout
	applyObsEngineConfig(&ecfg, cfg)

	sess, err := startObs(cfg)
	if err != nil {
		return nil, err
	}
	defer sess.close()
	ctl := &adaptiveCtl{sess: sess}
	if sess != nil {
		ag := sess.reg.Group("adaptive")
		ag.Counter("brisk_rescales_total", "Online rollovers the autoscaler performed this Run.", nil, ctl.rescales.Load)
		ag.Gauge("brisk_rescale_predicted_gain", "Model-predicted relative gain of the latest rescale.", nil, func() float64 {
			return floatFromAtomic(&ctl.lastPredicted)
		})
		ag.Gauge("brisk_rescale_realized_gain", "Measured relative gain of the latest settled rescale.", nil, func() float64 {
			return floatFromAtomic(&ctl.lastRealized)
		})
		// /statusz carries the full audit trail (predicted vs realized
		// gain plus measured pause per settled rescale), so pollers get
		// history, not just the latest-value gauges.
		sess.status("rescale_outcomes", func() any { return ctl.outcomes() })
	}

	total := &RunResult{Processed: map[string]uint64{}}
	start := time.Now()
	var restore *Checkpoint
	resume := cfg.Resume
	for {
		segDur := time.Duration(0)
		if cfg.Duration > 0 {
			segDur = cfg.Duration - time.Since(start)
			if segDur <= 0 {
				break
			}
		}
		e, err := engine.New(engine.Topology{
			App: t.g, Spouts: t.spouts, Operators: t.operators,
			Replication: repl, Schemas: t.schemas,
		}, ecfg)
		if err != nil {
			return nil, err
		}
		sess.bindEngine(e)
		if restore != nil {
			if err := e.RestoreFrom(restore); err != nil {
				return nil, err
			}
			restore = nil
		} else if resume {
			if _, err := e.Restore(); err != nil {
				return nil, err
			}
			resume = false
		}
		if !ctl.killAt.IsZero() {
			// The previous segment ended in Kill; the rescaled engine is
			// rebuilt and restored, so processing resumes the moment its
			// Run starts — the gap is the rescale's observable pause.
			pause := time.Since(ctl.killAt).Milliseconds()
			ctl.mu.Lock()
			ctl.lastPause = pause
			ctl.mu.Unlock()
			sess.event("rescale_end", map[string]string{
				"pause_ms": strconv.FormatInt(pause, 10),
			})
			ctl.killAt = time.Time{}
		}
		res, rescaled, err := t.superviseSegment(e, co, advisor, ac, interval, segDur, &repl, &restore, total.Rescales < maxRescales, ctl)
		if err != nil {
			return nil, err
		}
		total.Duration = time.Since(start)
		total.SinkTuples += res.SinkTuples
		total.AlignTimeouts += res.AlignTimeouts
		total.Errors = append(total.Errors, res.Errors...)
		for op, n := range res.Processed {
			total.Processed[op] += n
		}
		total.LatencyP50 = res.Latency.Quantile(0.5) / 1e6
		total.LatencyP99 = res.Latency.Quantile(0.99) / 1e6
		if !rescaled {
			break
		}
		total.Rescales++
	}
	if total.Duration > 0 {
		total.Throughput = float64(total.SinkTuples) / total.Duration.Seconds()
	}
	for _, o := range advisor.Outcomes() {
		total.RescaleOutcomes = append(total.RescaleOutcomes, RescaleOutcome{
			At: o.At, PredictedGain: o.PredictedGain, RealizedGain: o.RealizedGain,
		})
	}
	return total, nil
}

// adaptiveCtl carries the autoscaler's telemetry state across segments:
// the obs session, the rescale counter the metric pulls from, the
// kill timestamp the pause measurement spans, and the in-flight
// predicted-vs-realized gain measurement.
type adaptiveCtl struct {
	sess     *obsSession
	rescales atomic.Uint64
	killAt   time.Time
	pending  *pendingOutcome
	// lastPredicted/lastRealized hold the latest gains as float bits
	// (gauges read them from the scrape goroutine).
	lastPredicted, lastRealized atomic.Uint64

	// mu guards the rescale audit trail: supervise appends on the
	// control goroutine, /statusz reads from scrape goroutines.
	mu        sync.Mutex
	audits    []rescaleAudit
	lastPause int64 // measured pause of the latest rescale (ms)
}

// rescaleAudit is one settled rescale as /statusz publishes it:
// what the model promised, what the sink rate delivered, and how long
// processing stood still during the rollover.
type rescaleAudit struct {
	At            time.Time `json:"at"`
	PredictedGain float64   `json:"predicted_gain"`
	RealizedGain  float64   `json:"realized_gain"`
	PauseMs       int64     `json:"pause_ms"`
}

// outcomes snapshots the audit trail for /statusz.
func (c *adaptiveCtl) outcomes() []rescaleAudit {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]rescaleAudit, len(c.audits))
	copy(out, c.audits)
	return out
}

// pendingOutcome is a rescale whose realized gain is still being
// measured: rate0 is the pre-rescale sink rate, and the measurement
// settles after the rescaled engine has run a few profiling ticks.
type pendingOutcome struct {
	predicted float64
	rate0     float64
	ticks     int
}

func floatToAtomic(a *atomic.Uint64, v float64) { a.Store(math.Float64bits(v)) }
func floatFromAtomic(a *atomic.Uint64) float64  { return math.Float64frombits(a.Load()) }

// superviseSegment runs one engine segment under the profiling ticker.
// It returns the segment result and whether the segment ended in a
// rescale (repl and restore are then updated for the next segment).
func (t *Topology) superviseSegment(e *engine.Engine, co *CheckpointCoordinator, advisor *adaptive.Advisor, ac *AdaptiveConfig, interval, segDur time.Duration, repl *map[string]int, restore **Checkpoint, mayRescale bool, ctl *adaptiveCtl) (*engine.Result, bool, error) {
	resCh := make(chan *engine.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		r, err := e.Run(segDur)
		if err != nil {
			errCh <- err
			return
		}
		resCh <- r
	}()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var lastSink uint64
	var liveRate float64
	for {
		select {
		case err := <-errCh:
			return nil, false, err
		case res := <-resCh:
			return res, false, nil
		case <-tick.C:
		}
		// Live sink rate over the last tick: the before/after figure the
		// realized-gain audit compares (the model predicts steady-state
		// throughput, so both sides are measured the same way).
		sink := e.SinkCount()
		liveRate = float64(sink-lastSink) / interval.Seconds()
		lastSink = sink
		if p := ctl.pending; p != nil {
			// Skip the first post-rescale ticks: they blend restore replay
			// with steady state and would misattribute the pause to the
			// plan.
			if p.ticks++; p.ticks >= 3 {
				ctl.pending = nil
				realized := 0.0
				if p.rate0 > 0 {
					realized = liveRate/p.rate0 - 1
				}
				floatToAtomic(&ctl.lastRealized, realized)
				advisor.RecordOutcome(adaptive.Outcome{
					At: time.Now(), PredictedGain: p.predicted, RealizedGain: realized,
				})
				ctl.mu.Lock()
				ctl.audits = append(ctl.audits, rescaleAudit{
					At: time.Now(), PredictedGain: p.predicted,
					RealizedGain: realized, PauseMs: ctl.lastPause,
				})
				ctl.mu.Unlock()
				ctl.sess.event("rescale_realized", map[string]string{
					"predicted_gain": formatGain(p.predicted),
					"realized_gain":  formatGain(realized),
				})
			}
		}
		if err := advisor.RecordEngine(e.ProfileSnapshot()); err != nil {
			continue // e.g. a zero-duration tick; just skip this sample
		}
		if !mayRescale {
			continue
		}
		rec, err := advisor.Evaluate()
		if err != nil {
			continue // not enough history yet
		}
		dec := AdaptiveDecision{
			CurrentPredicted: rec.CurrentPredicted,
			NewPredicted:     rec.NewPredicted,
			Drifted:          rec.DriftedOperators,
		}
		if !rec.Reoptimize {
			if ac.OnDecision != nil {
				ac.OnDecision(dec)
			}
			continue
		}
		predicted := 0.0
		if rec.CurrentPredicted > 0 {
			predicted = rec.NewPredicted/rec.CurrentPredicted - 1
		}
		ctl.sess.event("advisor_decision", map[string]string{
			"predicted_gain":    formatGain(predicted),
			"current_predicted": strconv.FormatFloat(rec.CurrentPredicted, 'f', 1, 64),
			"new_predicted":     strconv.FormatFloat(rec.NewPredicted, 'f', 1, 64),
			"drifted":           strconv.Itoa(len(rec.DriftedOperators)),
		})
		observed, _ := advisor.ObservedStats()
		newCfg, err := rec.Plan.Apply()
		if err != nil {
			dec.Err = err
			if ac.OnDecision != nil {
				ac.OnDecision(dec)
			}
			continue
		}
		newRepl := t.pinnedReplication(newCfg.Replication, RunConfig{Replication: *repl})
		dec.Replication = newRepl
		if sameReplication(newRepl, *repl) {
			// Same shape, fresher statistics: adopt the baseline so the
			// advisor stops re-recommending, but keep the engine running.
			advisor.Adopt(rec.Plan, observed)
			if ac.OnDecision != nil {
				ac.OnDecision(dec)
			}
			continue
		}
		// Roll over: checkpoint the running engine, re-shard the cut
		// onto the new replication, and only then kill — a failed
		// re-shard leaves the run untouched.
		ctl.sess.event("rescale_begin", map[string]string{"predicted_gain": formatGain(predicted)})
		cp2, err := t.migrateState(e, co, resCh, errCh, newRepl)
		if err != nil {
			dec.Err = err
			if ac.OnDecision != nil {
				ac.OnDecision(dec)
			}
			if cp2 == nil {
				continue // checkpoint never completed; keep running
			}
			return nil, false, err
		}
		ctl.killAt = time.Now()
		e.Kill()
		select {
		case err := <-errCh:
			return nil, false, err
		case res := <-resCh:
			advisor.Adopt(rec.Plan, observed)
			*repl = newRepl
			*restore = cp2
			dec.Rescaled = true
			ctl.rescales.Add(1)
			floatToAtomic(&ctl.lastPredicted, predicted)
			ctl.pending = &pendingOutcome{predicted: predicted, rate0: liveRate}
			if ac.OnDecision != nil {
				ac.OnDecision(dec)
			}
			return res, true, nil
		}
	}
}

// migrateState triggers an aligned checkpoint on the running engine,
// waits for it to complete, and re-shards it onto newRepl. A nil
// checkpoint with an error means the cut never completed (the caller
// should keep running); a non-nil error after completion means the
// migration itself failed.
func (t *Topology) migrateState(e *engine.Engine, co *CheckpointCoordinator, resCh chan *engine.Result, errCh chan error, newRepl map[string]int) (*Checkpoint, error) {
	id := e.TriggerCheckpoint()
	if id == 0 {
		return nil, fmt.Errorf("briskstream: checkpointing unavailable for rescale")
	}
	deadline := time.Now().Add(10 * time.Second)
	for co.LatestID() < id {
		select {
		case err := <-errCh:
			errCh <- err
			return nil, fmt.Errorf("briskstream: run failed while awaiting rescale checkpoint")
		case res := <-resCh:
			// The stream ended under us; no rescale needed.
			resCh <- res
			return nil, fmt.Errorf("briskstream: run finished before rescale checkpoint %d", id)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("briskstream: rescale checkpoint %d did not complete", id)
		}
	}
	cp, err := co.Latest()
	if err != nil {
		return nil, err
	}
	cp2, err := engine.ReshardCheckpoint(cp, engine.Topology{
		App: t.g, Spouts: t.spouts, Operators: t.operators,
	}, newRepl)
	if err != nil {
		return nil, err
	}
	return cp2, nil
}

// pinnedReplication adapts an optimizer replication to what the running
// engine can adopt online: spout counts stay at their current values (a
// replayable source's offsets are per-replica and cannot be split or
// merged) and so do sink counts (sinks often hold non-keyed state, e.g.
// received multisets, that has no re-sharding rule).
func (t *Topology) pinnedReplication(planned map[string]int, cfg RunConfig) map[string]int {
	cur := t.repl
	if cfg.Replication != nil {
		cur = cfg.Replication
	}
	out := make(map[string]int, len(planned))
	for op, n := range planned {
		out[op] = n
	}
	for _, n := range t.g.Nodes() {
		if n.IsSpout || n.IsSink {
			c := cur[n.Name]
			if c <= 0 {
				c = 1
			}
			out[n.Name] = c
		}
	}
	return out
}

// formatGain renders a relative gain for event attributes ("0.137" =
// +13.7%).
func formatGain(g float64) string { return strconv.FormatFloat(g, 'f', 3, 64) }

func sameReplication(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for op, n := range a {
		bn := b[op]
		if bn <= 0 {
			bn = 1
		}
		if n <= 0 {
			n = 1
		}
		if n != bn {
			return false
		}
	}
	return true
}
