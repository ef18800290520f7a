package profile

import (
	"fmt"
	"time"
)

// Live profiling: the bridge from a running engine to the statistics
// the performance model consumes. The engine times every batch an
// operator consumes — service time, input bytes, output counts — and
// exposes the cumulative counters as an EngineSnapshot; FromEngine
// differences two snapshots into a profile.Set, replacing the paper's
// offline overseer/classmexer pass with an online one. Unlike offline profiling the live numbers include
// co-runner interference, so they shift the model's inputs toward the
// currently observed regime — exactly what the adaptive re-optimization
// loop wants.

// TaskSnapshot is one task's cumulative profiling counters at a point
// in time. All counters are monotone across one Run; rates come from
// differencing two snapshots.
type TaskSnapshot struct {
	// Op and Replica identify the task ("op#replica").
	Op      string
	Replica int
	// Processed counts input tuples consumed (spouts: tuples emitted).
	Processed uint64
	// Emitted counts output tuples produced downstream.
	Emitted uint64
	// ServiceNs is the total operator service time in nanoseconds over
	// the Processed input tuples (0 for spouts, which are not timed).
	ServiceNs uint64
	// InBytes is the total input tuple bytes over the Processed input
	// tuples (0 for spouts).
	InBytes uint64
	// QueueDepth is the task inbox's live depth (0 for spouts).
	QueueDepth int
	// QueueWaitNs is the cumulative time (ns) the task's input spent
	// waiting in its communication queue, weighted per tuple (each
	// dequeued jumbo's wait counted once per tuple it carries) across
	// QueueWaitBatch covered tuples — the queueing half of the latency
	// decomposition, comparable across batch sizes and between the
	// row-wise and columnar paths.
	QueueWaitNs    uint64
	QueueWaitBatch uint64
}

// Label renders the engine task label.
func (t TaskSnapshot) Label() string { return fmt.Sprintf("%s#%d", t.Op, t.Replica) }

// EngineSnapshot is a point-in-time profile of every task in a running
// engine.
type EngineSnapshot struct {
	At    time.Time
	Tasks []TaskSnapshot
}

// OpTotals sums the per-task counters of one snapshot by operator.
type OpTotals struct {
	Processed      uint64
	Emitted        uint64
	ServiceNs      uint64
	InBytes        uint64
	QueueWaitNs    uint64
	QueueWaitBatch uint64
	QueueDepth     int
	Replicas       int
}

// ByOp aggregates the snapshot per operator.
func (s EngineSnapshot) ByOp() map[string]OpTotals {
	out := make(map[string]OpTotals)
	for _, t := range s.Tasks {
		o := out[t.Op]
		o.Processed += t.Processed
		o.Emitted += t.Emitted
		o.ServiceNs += t.ServiceNs
		o.InBytes += t.InBytes
		o.QueueWaitNs += t.QueueWaitNs
		o.QueueWaitBatch += t.QueueWaitBatch
		o.QueueDepth += t.QueueDepth
		o.Replicas++
		out[t.Op] = o
	}
	return out
}

// FromEngine reduces the counter deltas between two engine snapshots of
// the same run into a Set the model can consume. base supplies the
// stream structure (which output streams an operator feeds and their
// relative weights) and the fallback statistics for operators that saw
// no traffic in the interval; measured Te, N, and total selectivity
// override the base values, with the measured total selectivity
// redistributed over the base per-stream proportions. Te and N are
// per-processed-tuple means, measured only where the interval has
// service time: spouts are untimed and keep their base Te and N. M
// (memory traffic per tuple) is not observable from the engine's
// counters and is always carried over from base.
func FromEngine(base Set, prev, cur EngineSnapshot) (Set, error) {
	if base == nil {
		return nil, fmt.Errorf("profile: FromEngine requires a base Set")
	}
	out := base.Clone()
	pOps := prev.ByOp()
	for op, c := range cur.ByOp() {
		st, ok := out[op]
		if !ok {
			continue
		}
		p := pOps[op]
		if c.Processed < p.Processed || c.ServiceNs < p.ServiceNs {
			return nil, fmt.Errorf("profile: operator %q counters went backwards (snapshots from different runs?)", op)
		}
		dIn := c.Processed - p.Processed
		if dIn > 0 && c.ServiceNs > p.ServiceNs {
			st.Te = float64(c.ServiceNs-p.ServiceNs) / float64(dIn)
			st.N = float64(c.InBytes-p.InBytes) / float64(dIn)
		}
		if dIn > 0 && len(st.Selectivity) > 0 {
			measured := float64(c.Emitted-p.Emitted) / float64(dIn)
			baseTotal := st.TotalSelectivity()
			sel := make(map[string]float64, len(st.Selectivity))
			for stream, v := range st.Selectivity {
				if baseTotal > 0 {
					sel[stream] = measured * v / baseTotal
				} else {
					sel[stream] = measured / float64(len(st.Selectivity))
				}
			}
			st.Selectivity = sel
		}
		out[op] = st
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// Rate returns an operator's processing rate (input tuples/sec) between
// two snapshots, or 0 when the interval is degenerate.
func Rate(prev, cur EngineSnapshot, op string) float64 {
	dt := cur.At.Sub(prev.At).Seconds()
	if dt <= 0 {
		return 0
	}
	c, p := cur.ByOp()[op], prev.ByOp()[op]
	if c.Processed <= p.Processed {
		return 0
	}
	return float64(c.Processed-p.Processed) / dt
}
