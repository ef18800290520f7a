package baseline

import (
	"fmt"
	"time"

	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
	"briskstream/internal/tuple"
)

// EngineClass is a system's execution class on the real engine: what
// every operator pays per input tuple on top of its own work, and how
// the engine's batching is set. The zero value costs nothing and keeps
// the engine defaults.
type EngineClass struct {
	// Serialize marshals and unmarshals every input tuple, as a
	// (de)serializing transport does at each hop; Copy hands the
	// operator a fresh deep copy — the defensive copies and duplicate
	// object creation of distributed DSPSs (Section 5.1).
	Serialize, Copy bool
	// SpinNs busy-spins per input tuple: the larger instruction
	// footprint (condition checking, exception paths) on the critical
	// path.
	SpinNs int
	// BatchSize and QueueCap set engine.Config.BatchSize (1 is per-tuple
	// queue insertion, i.e. no jumbo tuples, Section 5.2) and
	// QueueCapacity; 0 keeps the engine default.
	BatchSize, QueueCap int
}

// OnEngine returns the topology and engine configuration that run topo
// as this system would: every operator is wrapped so that it pays the
// system's EngineClass on each input tuple before its own Process. The
// wrapper implements only Process, so the engine feeds it one row at a
// time and a batch-aware inner operator sees one-row batches through
// its Process face (engine.OneRow); the sink multiset stays that of
// the plain run. The zero System is therefore the one-row reference
// execution of a vectorized topology.
func (s System) OnEngine(topo engine.Topology) (engine.Topology, engine.Config) {
	k := s.Engine
	ops := make(map[string]func() engine.Operator, len(topo.Operators))
	for name, mk := range topo.Operators {
		ops[name] = func() engine.Operator { return &classOp{inner: mk(), class: k} }
	}
	topo.Operators = ops
	cfg := engine.DefaultConfig()
	if k.BatchSize > 0 {
		cfg.BatchSize = k.BatchSize
	}
	if k.QueueCap > 0 {
		cfg.QueueCapacity = k.QueueCap
	}
	return topo, cfg
}

// classOp charges an EngineClass on the consumer side of every edge into
// inner and forwards the optional interfaces the engine asserts on an
// operator — all but the batch ones.
type classOp struct {
	inner engine.Operator
	class EngineClass
	buf   []byte // marshal scratch
}

func (o *classOp) Process(c engine.Collector, t *tuple.Tuple) error {
	if o.class.Serialize {
		o.buf = tuple.Marshal(t, o.buf[:0])
		decoded, _, err := tuple.Unmarshal(o.buf)
		if err != nil {
			return fmt.Errorf("baseline: decode re-marshaled input: %w", err)
		}
		t = decoded
	}
	if o.class.Copy {
		t = t.Clone()
	}
	if ns := o.class.SpinNs; ns > 0 {
		for end := time.Now().Add(time.Duration(ns)); time.Now().Before(end); {
		}
	}
	return o.inner.Process(c, t)
}

func (o *classOp) SetTimers(tm *engine.Timers) {
	if ta, ok := o.inner.(engine.TimerAware); ok {
		ta.SetTimers(tm)
	}
}

func (o *classOp) OnTimer(c engine.Collector, kind engine.TimerKind, at int64) error {
	if h, ok := o.inner.(engine.TimerHandler); ok {
		return h.OnTimer(c, kind, at)
	}
	return nil
}

func (o *classOp) OnWatermark(c engine.Collector, wm int64) error {
	if h, ok := o.inner.(engine.WatermarkHandler); ok {
		return h.OnWatermark(c, wm)
	}
	return nil
}

func (o *classOp) ValidateSnapshot() error {
	if v, ok := o.inner.(checkpoint.Validator); ok {
		return v.ValidateSnapshot()
	}
	return nil
}

// Snapshot and Restore forward to a stateful inner operator; for a
// stateless one they write and read nothing.
func (o *classOp) Snapshot(enc *checkpoint.Encoder) error {
	if s, ok := o.inner.(checkpoint.Snapshotter); ok {
		return s.Snapshot(enc)
	}
	return nil
}

func (o *classOp) Restore(dec *checkpoint.Decoder) error {
	if s, ok := o.inner.(checkpoint.Snapshotter); ok {
		return s.Restore(dec)
	}
	return nil
}
