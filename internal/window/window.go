// Package window implements event-time windowed aggregation over keyed
// streams: tumbling and sliding windows (Op) and session windows
// (SessionOp), driven by the engine's watermark punctuations and
// per-task timer service. This is the abstraction the paper's
// evaluation workloads kept hand-rolling — WC's word counts, SD's
// rolling per-device statistics, LR's per-segment minute statistics are
// all "aggregate per key per bounded time span" — now with real
// event-time semantics: out-of-order input is placed by the event
// timestamp it carries, results fire when the watermark (not the wall
// clock, not arrival order) says a window is complete, and every fire
// is deterministically ordered, so a topology's windowed output is a
// pure function of the event stream.
//
// # Mechanics
//
// A window operator implements engine.Operator plus the engine's
// TimerAware/TimerHandler hooks. Process (one tuple) and ProcessBatch
// (one columnar batch) do the same thing per row: compute the windows
// covering the row's event timestamp, skip those that already fired,
// fetch each remaining (key, window) pane's pooled accumulator
// (state.Map — no per-row allocation in steady state) and fold the row
// straight into it. The first row of a window registers an event-time
// timer at the window's fire time (end + allowed lateness); when the
// task's watermark passes it, the engine calls OnTimer on the task
// goroutine and the operator emits every window firing at that instant
// in ascending key order, then recycles their state. A row arriving
// behind the watermark skips panes that already fired; one none of
// whose windows remain open is dropped and counted (LateCount).
//
// Operators without a timer service (isolated profiling harnesses) can
// still run: windows accumulate and are drained explicitly via
// FlushOpen.
package window

import (
	"cmp"
	"fmt"
	"slices"

	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
	"briskstream/internal/state"
	"briskstream/internal/tuple"
)

// Span is one window's half-open event-time interval [Start, End).
type Span struct{ Start, End int64 }

// Op configures a keyed tumbling or sliding window aggregation. A is
// the accumulator type; entries are pooled, so Init must fully reset an
// accumulator (clearing, not reallocating, any internal maps/slices —
// that is what keeps the hot path allocation-free).
type Op[A any] struct {
	// KeyField is the tuple field to key by; negative keys the whole
	// stream into one group (a global window).
	KeyField int
	// Size is the window length in event-time units. Required.
	Size int64
	// Slide is the distance between consecutive window starts; 0 (or
	// Size) makes the window tumbling. Any Slide in (0, Size] works —
	// Size need not be a multiple of it — and each event lands in every
	// window covering it, at most ceil(Size/Slide) of them.
	Slide int64
	// Lateness delays each window's fire time past its end, tolerating
	// that much event-time disorder beyond what the watermark already
	// promises. Tuples for windows that have fired are dropped.
	Lateness int64
	// Init resets a (possibly recycled) accumulator.
	Init func(acc *A)
	// Add folds one tuple into the accumulator. The tuple is only valid
	// during the call (the engine recycles it); values read out of it
	// are immutable and may be kept.
	Add func(acc *A, t *tuple.Tuple)
	// Emit publishes one completed window. The key is the typed group
	// key (KindNone for global windows); re-emit it with
	// Tuple.AppendKey. Emissions inherit the firing watermark as their
	// event timestamp unless Emit assigns its own (stamping the window
	// end is conventional).
	Emit func(c engine.Collector, key tuple.Key, w Span, acc *A)
	// Save and Load (de)serialize one accumulator for checkpointing;
	// both optional, but required together once the topology runs with
	// checkpointing enabled — the operator's Snapshot fails without
	// them. Load receives an Init-reset accumulator. The pair must
	// round-trip: Load(Save(acc)) must rebuild an accumulator that
	// aggregates identically.
	Save func(enc *checkpoint.Encoder, acc *A)
	Load func(dec *checkpoint.Decoder, acc *A) error

	// AddRow folds row r of a batch into a window's accumulator, reading
	// the batch's columns in place; optional. With it set the engine
	// delivers the operator's input as columnar batches (ProcessBatch);
	// without it the operator reports WantsBatches false and is fed one
	// row at a time through Process. AddRow must leave the accumulator
	// exactly as Add would for the same row as a tuple — the
	// batch/scalar equivalence tests hold operators to this. The batch
	// is only valid during the call.
	AddRow func(acc *A, b *tuple.Batch, row int)
}

// winKey identifies one (key, window start) accumulator.
type winKey struct {
	key   tuple.Key
	start int64
}

// bucket lists the windows sharing one fire timestamp.
type bucket struct{ keys []winKey }

// windowOp is the runtime for Op.
type windowOp[A any] struct {
	cfg    Op[A]
	tm     *engine.Timers
	wins   *state.Map[winKey, A]
	byFire *state.Map[int64, bucket]
	late   uint64
}

// New builds the operator. It panics on an invalid configuration —
// builders run at topology wiring time, where a panic is a programming
// error, not a data-path condition.
func New[A any](cfg Op[A]) engine.Operator {
	if cfg.Size <= 0 {
		panic("window: Size must be positive")
	}
	if cfg.Slide < 0 || cfg.Slide > cfg.Size {
		panic("window: Slide must be in (0, Size]")
	}
	if cfg.Slide == 0 {
		cfg.Slide = cfg.Size // tumbling
	}
	if cfg.Lateness < 0 {
		panic("window: negative Lateness")
	}
	if cfg.Init == nil || cfg.Add == nil || cfg.Emit == nil {
		panic("window: Init, Add and Emit are required")
	}
	return &windowOp[A]{
		cfg:    cfg,
		wins:   state.NewMap[winKey, A](),
		byFire: state.NewMap[int64, bucket](),
	}
}

// SetTimers implements engine.TimerAware.
func (op *windowOp[A]) SetTimers(tm *engine.Timers) { op.tm = tm }

// watermark returns the task watermark, or -inf without a timer service
// (isolated harnesses: nothing is ever late, nothing auto-fires).
func (op *windowOp[A]) watermark() int64 {
	if op.tm == nil {
		return engine.WatermarkMin
	}
	return op.tm.Watermark()
}

// fireAt is the event time at which the window starting at start fires.
func (op *windowOp[A]) fireAt(start int64) int64 {
	return start + op.cfg.Size + op.cfg.Lateness
}

// pane returns the accumulator of the window (key, start), opening it
// on first touch. This is the one new-window protocol Process,
// ProcessBatch and Restore share: the key — possibly a view into a
// tuple's or batch's arena — is canonicalized before the state outlives
// it (a clone for string keys, free for every other kind: intern hot
// string keys as symbols), the accumulator is Init-reset, and the
// window joins the bucket of its fire time, whose event timer is
// registered once.
func (op *windowOp[A]) pane(key tuple.Key, start int64) *A {
	if acc := op.wins.Get(winKey{key: key, start: start}); acc != nil {
		return acc
	}
	wk := winKey{key: key.Canon(), start: start}
	acc, _ := op.wins.GetOrCreate(wk)
	op.cfg.Init(acc)
	at := op.fireAt(start)
	b, fresh := op.byFire.GetOrCreate(at)
	if fresh {
		b.keys = b.keys[:0] // recycled bucket: drop its old life
		if op.tm != nil {
			op.tm.RegisterEvent(at)
		}
	}
	b.keys = append(b.keys, wk)
	return acc
}

// Process implements engine.Operator: the tuple folds into the pane of
// every window covering its event time — the starts in (et-Size, et] on
// the Slide grid — that has not fired yet.
func (op *windowOp[A]) Process(c engine.Collector, t *tuple.Tuple) error {
	var key tuple.Key
	if op.cfg.KeyField >= 0 {
		if op.cfg.KeyField >= t.Len() {
			return fmt.Errorf("window: key field %d but tuple has %d values", op.cfg.KeyField, t.Len())
		}
		key = t.Key(op.cfg.KeyField)
	}
	wm, et := op.watermark(), t.Event
	accepted := false
	for start := floorDiv(et, op.cfg.Slide) * op.cfg.Slide; start > et-op.cfg.Size; start -= op.cfg.Slide {
		if op.fireAt(start) > wm {
			op.cfg.Add(op.pane(key, start), t)
			accepted = true
		}
	}
	if !accepted {
		op.late++ // every window covering the tuple had fired: it is dropped
	}
	return nil
}

// WantsBatches implements engine.BatchGater: without an AddRow hook
// ProcessBatch could only copy each row out and run Process on it, so
// the operator asks the engine to feed it rows instead.
func (op *windowOp[A]) WantsBatches() bool { return op.cfg.AddRow != nil }

// ProcessBatch implements engine.BatchOperator: each row takes
// Process's path — AddRow into the pane of every covering window that
// has not fired — with its key and event time read from the batch's
// columns in place. The watermark is read once: it only advances
// between batches, never inside one.
func (op *windowOp[A]) ProcessBatch(c engine.Collector, b *tuple.Batch) error {
	if !op.WantsBatches() {
		return fmt.Errorf("window: batch delivered to an operator without an AddRow hook")
	}
	if op.cfg.KeyField >= 0 && op.cfg.KeyField >= b.Cols() {
		return fmt.Errorf("window: key field %d but batch has %d columns", op.cfg.KeyField, b.Cols())
	}
	wm := op.watermark()
	for r := 0; r < b.Len(); r++ {
		var key tuple.Key
		if op.cfg.KeyField >= 0 {
			key = b.Key(op.cfg.KeyField, r)
		}
		et := b.Event(r)
		accepted := false
		for start := floorDiv(et, op.cfg.Slide) * op.cfg.Slide; start > et-op.cfg.Size; start -= op.cfg.Slide {
			if op.fireAt(start) > wm {
				op.cfg.AddRow(op.pane(key, start), b, r)
				accepted = true
			}
		}
		if !accepted {
			op.late++ // every window covering the row had fired: it is dropped
		}
	}
	return nil
}

// OnTimer implements engine.TimerHandler: fire every window scheduled
// at this instant, in ascending key order (all share a start — fixed
// window sizes make equal fire times equal spans), then recycle.
func (op *windowOp[A]) OnTimer(c engine.Collector, kind engine.TimerKind, at int64) error {
	if kind != engine.EventTimer {
		return nil
	}
	b := op.byFire.Get(at)
	if b == nil {
		return nil // shared per-task wheel: someone else's timer
	}
	slices.SortFunc(b.keys, func(x, y winKey) int {
		if d := cmp.Compare(x.start, y.start); d != 0 {
			return d
		}
		return x.key.Compare(y.key)
	})
	for _, wk := range b.keys {
		acc := op.wins.Get(wk)
		if acc == nil {
			continue
		}
		op.cfg.Emit(c, wk.key, Span{wk.start, wk.start + op.cfg.Size}, acc)
		op.wins.Delete(wk)
	}
	op.byFire.Delete(at)
	return nil
}

// FlushOpen emits every open window in (fire time, key) order and
// clears the state. Harnesses without watermark infrastructure
// (operator profiling, batch drains) use it as the end-of-input flush.
func (op *windowOp[A]) FlushOpen(c engine.Collector) error {
	fires := make([]int64, 0, op.byFire.Len())
	op.byFire.Range(func(at int64, _ *bucket) bool {
		fires = append(fires, at)
		return true
	})
	slices.Sort(fires)
	for _, at := range fires {
		if err := op.OnTimer(c, engine.EventTimer, at); err != nil {
			return err
		}
	}
	return nil
}

// ValidateSnapshot implements checkpoint.Validator: under
// checkpointing the engine rejects the topology at build time when the
// codecs are missing, instead of failing at the first barrier.
func (op *windowOp[A]) ValidateSnapshot() error {
	if op.cfg.Save == nil || op.cfg.Load == nil {
		return fmt.Errorf("window: checkpointing needs Op.Save and Op.Load")
	}
	return nil
}

// compareWinKeys orders accumulators deterministically for snapshot
// encoding: by window start, then by key.
func compareWinKeys(a, b winKey) int {
	if d := cmp.Compare(a.start, b.start); d != 0 {
		return d
	}
	return a.key.Compare(b.key)
}

// Snapshot implements checkpoint.Snapshotter: the open (key, window)
// accumulators and the late counter, encoded in (start, key) order so
// the same state always serializes to the same bytes. The fire-time
// index is not encoded — Restore rebuilds it (and re-registers the
// event timers) from the windows themselves.
func (op *windowOp[A]) Snapshot(enc *checkpoint.Encoder) error {
	if op.cfg.Save == nil || op.cfg.Load == nil {
		return fmt.Errorf("window: checkpointing needs Op.Save and Op.Load")
	}
	enc.Uint64(op.late)
	enc.Len(op.wins.Len())
	op.wins.RangeSorted(compareWinKeys, func(wk winKey, acc *A) bool {
		enc.Key(wk.key)
		enc.Int64(wk.start)
		op.cfg.Save(enc, acc)
		return true
	})
	return nil
}

// Restore implements checkpoint.Snapshotter, replacing the operator's
// state with the snapshot's and re-arming one event timer per distinct
// fire time.
func (op *windowOp[A]) Restore(dec *checkpoint.Decoder) error {
	if op.cfg.Save == nil || op.cfg.Load == nil {
		return fmt.Errorf("window: checkpointing needs Op.Save and Op.Load")
	}
	op.wins.Clear()
	op.byFire.Clear()
	op.late = dec.Uint64()
	n := dec.Len()
	for i := 0; i < n && dec.Err() == nil; i++ {
		key := dec.Key()
		start := dec.Int64()
		if op.wins.Get(winKey{key: key, start: start}) != nil {
			return fmt.Errorf("window: duplicate (key, start) in snapshot")
		}
		if err := op.cfg.Load(dec, op.pane(key, start)); err != nil {
			return err
		}
	}
	return dec.Err()
}

// Reshard implements checkpoint.Resharder: it re-partitions the union
// of the old replicas' snapshot payloads across n new replicas, routing
// every (key, window) accumulator to shard key.Hash() % n — the owner
// the engine's fields partitioning will route that key's tuples to
// after the rescale. Each output shard is a valid Restore payload with
// its entries in the canonical (start, key) order; the late counter
// (global, not keyed) is carried on shard 0.
func (op *windowOp[A]) Reshard(old [][]byte, n int) ([][]byte, error) {
	if op.cfg.Save == nil || op.cfg.Load == nil {
		return nil, fmt.Errorf("window: resharding needs Op.Save and Op.Load")
	}
	if n <= 0 {
		return nil, fmt.Errorf("window: reshard to %d replicas", n)
	}
	type entry struct {
		wk  winKey
		acc []byte
	}
	shards := make([][]entry, n)
	var late uint64
	var acc A
	ebuf := checkpoint.NewEncoder()
	for _, payload := range old {
		dec := checkpoint.NewDecoder(payload)
		late += dec.Uint64()
		cnt := dec.Len()
		for i := 0; i < cnt && dec.Err() == nil; i++ {
			key := dec.Key()
			start := dec.Int64()
			op.cfg.Init(&acc)
			if err := op.cfg.Load(dec, &acc); err != nil {
				return nil, err
			}
			ebuf.Reset()
			op.cfg.Save(ebuf, &acc)
			s := int(key.Hash() % uint64(n))
			shards[s] = append(shards[s], entry{winKey{key: key, start: start}, slices.Clone(ebuf.Bytes())})
		}
		if err := dec.Err(); err != nil {
			return nil, err
		}
	}
	out := make([][]byte, n)
	for s := range shards {
		slices.SortFunc(shards[s], func(a, b entry) int { return compareWinKeys(a.wk, b.wk) })
		enc := checkpoint.NewEncoder()
		if s == 0 {
			enc.Uint64(late)
		} else {
			enc.Uint64(0)
		}
		enc.Len(len(shards[s]))
		for _, e := range shards[s] {
			enc.Key(e.wk.key)
			enc.Int64(e.wk.start)
			enc.Raw(e.acc)
		}
		out[s] = enc.Bytes()
	}
	return out, nil
}

// LateCount reports tuples dropped entirely: every window they were
// assigned to had already fired. A tuple that still lands in at least
// one open sliding pane is not counted. (The session operator counts
// the same unit: whole dropped tuples.)
func (op *windowOp[A]) LateCount() uint64 { return op.late }

// OpenWindows reports the number of accumulating (key, window) pairs.
func (op *windowOp[A]) OpenWindows() int { return op.wins.Len() }

// Flusher is implemented by the window operators: FlushOpen drains all
// open state, emitting in deterministic order. Profiling harnesses use
// it in place of watermark-driven firing.
type Flusher interface {
	FlushOpen(c engine.Collector) error
}

// LateCounter exposes the late-drop counter of a window operator.
type LateCounter interface {
	LateCount() uint64
}

// floorDiv is integer division rounding toward negative infinity, so
// window starts align on the grid for negative event times too.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
