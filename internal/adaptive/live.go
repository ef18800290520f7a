package adaptive

import (
	"fmt"
	"sort"

	"briskstream/internal/profile"
	"briskstream/internal/rlas"
)

// Live ingestion: the engine-facing half of the advisor. Instead of
// bare processed-count observations (Record), a running engine hands
// over full profile snapshots — service times, input sizes, emit
// counts, queue depths — and the advisor derives the model's
// statistics from measured deltas (profile.FromEngine) rather than
// from the consumer-rate attribution heuristic.

// RecordEngine ingests one engine profile snapshot. It also feeds the
// processed counters into the observation history, so Rates and the
// rate-based fallbacks keep working.
func (a *Advisor) RecordEngine(s profile.EngineSnapshot) error {
	if len(a.engHistory) > 0 && !s.At.After(a.engHistory[len(a.engHistory)-1].At) {
		return fmt.Errorf("adaptive: engine snapshots must be monotonically timestamped")
	}
	processed := map[string]uint64{}
	for op, t := range s.ByOp() {
		processed[op] = t.Processed
	}
	if err := a.Record(Observation{Processed: processed, At: s.At}); err != nil {
		return err
	}
	a.engHistory = append(a.engHistory, s)
	if len(a.engHistory) > 16 {
		a.engHistory = a.engHistory[1:]
	}
	return nil
}

// engineStats reduces the two most recent engine snapshots into a
// profile.Set, or reports false when fewer than two were recorded.
func (a *Advisor) engineStats() (profile.Set, bool, error) {
	if len(a.engHistory) < 2 {
		return nil, false, nil
	}
	prev, cur := a.engHistory[len(a.engHistory)-2], a.engHistory[len(a.engHistory)-1]
	set, err := profile.FromEngine(a.stats, prev, cur)
	if err != nil {
		return nil, false, err
	}
	return set, true, nil
}

// Backpressured lists operators whose input batches spent more than
// Config.Backpressure times the operator's own processing time waiting
// in communication queues over the last snapshot interval — the
// queue-wait signal the per-jumbo enqueue/dequeue stamping supplies.
// Sustained queueing of this magnitude means the operator is
// under-provisioned regardless of whether its Te or selectivity moved,
// so Drifted folds these into the re-optimization trigger. Returns nil
// with fewer than two engine snapshots or a non-positive threshold.
func (a *Advisor) Backpressured() []string {
	if a.cfg.Backpressure <= 0 || len(a.engHistory) < 2 {
		return nil
	}
	prev, cur := a.engHistory[len(a.engHistory)-2], a.engHistory[len(a.engHistory)-1]
	pOps := prev.ByOp()
	var out []string
	for op, c := range cur.ByOp() {
		p := pOps[op]
		if c.QueueWaitNs <= p.QueueWaitNs || c.Processed <= p.Processed {
			continue
		}
		dWait := float64(c.QueueWaitNs - p.QueueWaitNs)
		dProc := float64(c.Processed - p.Processed)
		// Service time per tuple: live-measured when the interval holds
		// service time, the baseline Te otherwise (spouts are untimed).
		te := a.stats[op].Te
		if c.ServiceNs > p.ServiceNs {
			te = float64(c.ServiceNs-p.ServiceNs) / dProc
		}
		if te <= 0 {
			continue
		}
		if dWait > a.cfg.Backpressure*te*dProc {
			out = append(out, op)
		}
	}
	sort.Strings(out)
	return out
}

// Adopt rebases the advisor onto a newly rolled-out plan: the plan
// becomes the current one, its statistics become the drift baseline,
// and the observation history is discarded (counters restart at zero
// when the engine restarts, so old snapshots no longer difference).
func (a *Advisor) Adopt(current *rlas.Result, stats profile.Set) {
	a.current = current
	if stats != nil {
		a.stats = stats.Clone()
	}
	a.history = nil
	a.engHistory = nil
}

// Current returns the plan the advisor is watching.
func (a *Advisor) Current() *rlas.Result { return a.current }
