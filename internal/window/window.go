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
// TimerAware/TimerHandler hooks. Process assigns each tuple to its
// window(s) by Tuple.Event and folds it into a pooled per-(key, window)
// accumulator (state.Map — no per-tuple allocation in steady state).
// The first tuple of a window registers an event-time timer at the
// window's fire time (end + allowed lateness); when the task's
// watermark passes it, the engine calls OnTimer on the task goroutine
// and the operator emits every window firing at that instant in
// ascending key order, then recycles their state. A tuple arriving
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
	// Slide is the pane offset for sliding windows; 0 (or Size) makes
	// the window tumbling. Size must be a multiple of nothing — any
	// positive Slide works, each event lands in ceil(Size/Slide) spans.
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

	// AddRow and Merge enable the vectorized (columnar batch) path;
	// both optional, but required together — with only one set the
	// operator reports WantsBatches false and the engine keeps the edge
	// scalar. AddRow folds row r of a batch into an accumulator —
	// either a per-batch partial (an Init-reset A, later Merge-folded
	// into the window's live accumulator) or, when the runtime's
	// feedback heuristic finds grouping unprofitable, the live
	// accumulator directly. The pair must be equivalent to calling Add
	// once per row: for any rows and any split into partials,
	// Merge(acc, fold-with-AddRow(rows)) must leave acc exactly as the
	// Add calls would — the batch/scalar equivalence property tests
	// hold operators to this.
	AddRow func(acc *A, b *tuple.Batch, row int)
	Merge  func(acc *A, part *A)
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
	spans  []Span // per-tuple scratch
	late   uint64

	// Per-batch vectorization scratch, reused across ProcessBatch calls
	// so the steady state allocates nothing: groups indexes the batch's
	// distinct (key, window) pairs into parts (the partial
	// accumulators), pkeys remembers them in first-seen order. Keys in
	// groups may borrow the batch's arena — the map is cleared before
	// the next batch, never read after ProcessBatch returns.
	groups map[winKey]int
	pkeys  []winKey
	parts  []A

	// Grouping-amortization feedback. Pre-accumulating a batch into
	// partials pays only when several rows fold into the same (key,
	// window) — otherwise the scratch map is a second probe per row-span
	// on top of the live-pane probe it was meant to save. Each grouped
	// batch measures its fold ratio; a streak of unprofitable batches
	// flips ProcessBatch to direct accumulation (AddRow straight into
	// the live panes), and a periodic re-probe batch flips back when the
	// key distribution has narrowed.
	direct    bool
	dirStreak int
	probeLeft int
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

// Process implements engine.Operator.
func (op *windowOp[A]) Process(c engine.Collector, t *tuple.Tuple) error {
	et := t.Event
	var key tuple.Key
	if op.cfg.KeyField >= 0 {
		if op.cfg.KeyField >= t.Len() {
			return fmt.Errorf("window: key field %d but tuple has %d values", op.cfg.KeyField, t.Len())
		}
		key = t.Key(op.cfg.KeyField)
	}
	wm := op.watermark()

	// Assign: all spans with start in (et-Size, et] on the Slide grid.
	op.spans = op.spans[:0]
	for start := floorDiv(et, op.cfg.Slide) * op.cfg.Slide; start > et-op.cfg.Size; start -= op.cfg.Slide {
		op.spans = append(op.spans, Span{start, start + op.cfg.Size})
	}

	accepted := false
	canonical := false
	for _, sp := range op.spans {
		fireAt := sp.End + op.cfg.Lateness
		if fireAt <= wm {
			continue // this window already fired; skip the pane
		}
		accepted = true
		wk := winKey{key: key, start: sp.Start}
		acc := op.wins.Get(wk)
		if acc == nil {
			// New window: the stored key must outlive this tuple, so the
			// borrowed arena-view key is canonicalized once per tuple (a
			// no-op — and no allocation — for every non-string kind;
			// intern hot string keys as symbols to avoid the clone).
			if !canonical {
				key = key.Canon()
				wk.key = key
				canonical = true
			}
			acc, _ = op.wins.GetOrCreate(wk)
			op.cfg.Init(acc)
			b, fresh := op.byFire.GetOrCreate(fireAt)
			if fresh {
				b.keys = b.keys[:0] // recycled bucket: drop its old life
				if op.tm != nil {
					op.tm.RegisterEvent(fireAt)
				}
			}
			b.keys = append(b.keys, wk)
		}
		op.cfg.Add(acc, t)
	}
	if !accepted {
		op.late++ // every assigned window had fired: the tuple is dropped
	}
	return nil
}

// WantsBatches implements engine.BatchGater: without the AddRow/Merge
// hooks the vectorized path would only re-run the scalar fallback with
// an extra materialization copy, so the operator asks the engine to
// keep its input edges scalar.
func (op *windowOp[A]) WantsBatches() bool {
	return op.cfg.AddRow != nil && op.cfg.Merge != nil
}

// pane returns the live accumulator for wk, creating it on first touch:
// the possibly arena-borrowed key is canonicalized before it outlives
// its tuple or batch, the accumulator Init-reset, and the window's fire
// timer registered — exactly the scalar Process's new-window protocol.
func (op *windowOp[A]) pane(wk winKey) *A {
	acc := op.wins.Get(wk)
	if acc != nil {
		return acc
	}
	wk.key = wk.key.Canon()
	acc, _ = op.wins.GetOrCreate(wk)
	op.cfg.Init(acc)
	fireAt := wk.start + op.cfg.Size + op.cfg.Lateness
	bkt, fresh := op.byFire.GetOrCreate(fireAt)
	if fresh {
		bkt.keys = bkt.keys[:0] // recycled bucket: drop its old life
		if op.tm != nil {
			op.tm.RegisterEvent(fireAt)
		}
	}
	bkt.keys = append(bkt.keys, wk)
	return acc
}

// Grouping-feedback thresholds: a grouped batch is profitable when its
// row-span entries outnumber its distinct groups by at least 3:2
// (below that the scratch map costs more probes than it saves);
// groupLoseStreak consecutive unprofitable batches switch to direct
// accumulation, re-probed every groupReprobeEvery direct batches so a
// narrowing key distribution can switch back.
const (
	groupLoseStreak   = 4
	groupReprobeEvery = 256
)

// ProcessBatch implements engine.BatchOperator. The default mode groups
// the batch's rows by (key, window) into per-batch partial accumulators
// (AddRow), then merges each partial into its live window once (Merge):
// one scratch-map probe and one Merge per distinct (key, window)
// replace one state.Map probe per row-span, which is where the
// vectorized win comes from on skewed or low-cardinality keys. When the
// measured fold ratio says rows rarely share a pane (high-cardinality
// keys — the scratch map then only doubles the probes), the feedback
// heuristic switches to direct mode: AddRow straight into the live
// panes, no intermediate partials. Both modes read the watermark once —
// it only advances between batches, never inside one — and pane
// placement, late-drop counting and timer registration match the scalar
// Process exactly.
func (op *windowOp[A]) ProcessBatch(c engine.Collector, b *tuple.Batch) error {
	if !op.WantsBatches() {
		return fmt.Errorf("window: batch delivered to an operator without AddRow/Merge hooks")
	}
	if op.cfg.KeyField >= 0 && op.cfg.KeyField >= b.Cols() {
		return fmt.Errorf("window: key field %d but batch has %d columns", op.cfg.KeyField, b.Cols())
	}
	wm := op.watermark()
	n := b.Len()

	if op.direct {
		if op.probeLeft--; op.probeLeft <= 0 {
			op.direct, op.dirStreak = false, 0 // re-probe grouped next batch
		}
		for r := 0; r < n; r++ {
			et := b.Event(r)
			var key tuple.Key
			if op.cfg.KeyField >= 0 {
				key = b.Key(op.cfg.KeyField, r)
			}
			accepted := false
			for start := floorDiv(et, op.cfg.Slide) * op.cfg.Slide; start > et-op.cfg.Size; start -= op.cfg.Slide {
				if start+op.cfg.Size+op.cfg.Lateness <= wm {
					continue // this window already fired; skip the pane
				}
				accepted = true
				op.cfg.AddRow(op.pane(winKey{key: key, start: start}), b, r)
			}
			if !accepted {
				op.late++ // every assigned window had fired: the row is dropped
			}
		}
		return nil
	}

	if op.groups == nil {
		op.groups = make(map[winKey]int)
	}
	clear(op.groups)
	op.pkeys = op.pkeys[:0]
	entries := 0
	for r := 0; r < n; r++ {
		et := b.Event(r)
		var key tuple.Key
		if op.cfg.KeyField >= 0 {
			key = b.Key(op.cfg.KeyField, r)
		}
		accepted := false
		for start := floorDiv(et, op.cfg.Slide) * op.cfg.Slide; start > et-op.cfg.Size; start -= op.cfg.Slide {
			if start+op.cfg.Size+op.cfg.Lateness <= wm {
				continue // this window already fired; skip the pane
			}
			accepted = true
			entries++
			wk := winKey{key: key, start: start}
			gi, ok := op.groups[wk]
			if !ok {
				gi = len(op.pkeys)
				op.groups[wk] = gi
				op.pkeys = append(op.pkeys, wk)
				if gi == len(op.parts) {
					op.parts = append(op.parts, *new(A))
				}
				op.cfg.Init(&op.parts[gi])
			}
			op.cfg.AddRow(&op.parts[gi], b, r)
		}
		if !accepted {
			op.late++ // every assigned window had fired: the row is dropped
		}
	}
	for gi, wk := range op.pkeys {
		op.cfg.Merge(op.pane(wk), &op.parts[gi])
	}
	// Feedback: a near-full batch whose entries barely outnumber its
	// groups folded almost nothing (tiny batches are too noisy to judge).
	if entries >= 16 {
		if 2*entries < 3*len(op.pkeys) {
			if op.dirStreak++; op.dirStreak >= groupLoseStreak {
				op.direct, op.probeLeft = true, groupReprobeEvery
			}
		} else {
			op.dirStreak = 0
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
		wk := winKey{key: key, start: start}
		acc, created := op.wins.GetOrCreate(wk)
		if !created {
			return fmt.Errorf("window: duplicate (key, start) in snapshot")
		}
		op.cfg.Init(acc)
		if err := op.cfg.Load(dec, acc); err != nil {
			return err
		}
		fireAt := start + op.cfg.Size + op.cfg.Lateness
		b, fresh := op.byFire.GetOrCreate(fireAt)
		if fresh {
			b.keys = b.keys[:0]
			if op.tm != nil {
				op.tm.RegisterEvent(fireAt)
			}
		}
		b.keys = append(b.keys, wk)
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
