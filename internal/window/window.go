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
// pure function of the operator's input sequence.
//
// # Mechanics
//
// A window operator implements engine.BatchOperator plus the engine's
// TimerAware/TimerHandler hooks. ProcessBatch is its one body: for each
// row of a columnar batch it computes the windows covering the row's
// event timestamp, skips those that already fired, fetches each
// remaining (key, window) pane's accumulator from the pane table of the
// window's fire time (end + allowed lateness; recycled tables make this
// allocation-free in steady state) and folds the row straight into it
// with the spec's one accumulate hook, Add, which reads the row's
// columns in place. Process is the shared one-row face
// (engine.OneRow): a tuple fed one at a time travels as a one-row
// batch. The first pane of a fire time registers an event-time timer
// there; when the task's watermark passes it, the engine calls OnTimer
// on the task goroutine and the operator drains that fire time's table
// whole, emitting its panes in first-touch order, then recycles it.
// Fire times themselves fire in ascending order. (SessionOp still fires
// each instant in ascending key order.) A row arriving behind the
// watermark skips panes that already fired; one none of whose windows
// remain open is dropped and counted (LateCount).
//
// Operators without a timer service (isolated profiling harnesses) can
// still run: windows accumulate and are drained explicitly via
// FlushOpen.
package window

import (
	"cmp"
	"fmt"
	"math"
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
	// Add folds row r of a batch into the accumulator, reading the
	// batch's columns in place. It is the spec's one accumulate hook:
	// the engine delivers batches, and a tuple fed through Process
	// arrives as a one-row batch. The batch is only valid during the
	// call: numbers and symbols read from it may be kept, string views
	// (Batch.Str on a string column) must be cloned.
	Add func(acc *A, b *tuple.Batch, r int)
	// Emit publishes one completed window. The key is the typed group
	// key (KindNone for global windows); re-emit it with
	// Tuple.AppendKey. Emissions inherit the firing watermark as their
	// event timestamp unless Emit assigns its own (stamping the window
	// end is conventional). Fire times are emitted in ascending order,
	// the windows of one fire time in the order their keys first
	// touched them.
	Emit func(c engine.Collector, key tuple.Key, w Span, acc *A)
	// Save and Load (de)serialize one accumulator for checkpointing;
	// both optional, but required together once the topology runs with
	// checkpointing enabled — the operator's Snapshot fails without
	// them. Load receives an Init-reset accumulator. The pair must
	// round-trip: Load(Save(acc)) must rebuild an accumulator that
	// aggregates identically.
	Save func(enc *checkpoint.Encoder, acc *A)
	Load func(dec *checkpoint.Decoder, acc *A) error
}

// winKey identifies one (key, window start) accumulator in snapshot
// and reshard ordering.
type winKey struct {
	key   tuple.Key
	start int64
}

// panes is the pane table of one fire time. Equal fire times mean equal
// starts (fireAt = start + Size + Lateness), so every pane in it covers
// the same window. accs is a state.Map keyed by keyHash, so its panes
// iterate in first-touch order; a recycled table keeps its capacity,
// and a pane re-opened within it keeps its accumulator's internal
// capacity for Init to reset.
type panes[A any] struct {
	start int64
	accs  *state.Map[tuple.Key, A]
}

// keyHash is a pane key's hash payload: a symbol, int, float or bool
// key's 64-bit payload, tagged with its kind (state.Map multiplies it
// by the golden ratio and indexes by the product's top bits). A string
// key's payload is its Key.Hash: FNV-1a leaves keys that differ only in
// their last bytes apart only in its low bits, which the multiply
// spreads. Equal keys (==, the Go map equality) hash equally, NaN and
// ±0.0 included: floats hash by their bits.
func keyHash(k tuple.Key) uint64 {
	var v uint64
	switch k.Kind() {
	case tuple.KindStr:
		v = k.Hash()
	case tuple.KindSym:
		v = uint64(k.Sym())
	case tuple.KindInt:
		v = uint64(k.Int())
	case tuple.KindFloat:
		v = math.Float64bits(k.Float())
	case tuple.KindBool:
		if k.Bool() {
			v = 1
		}
	}
	return v ^ uint64(k.Kind())<<59
}

// paneRef is one open pane, collected for snapshot encoding.
type paneRef[A any] struct {
	wk  winKey
	acc *A
}

// windowOp is the runtime for Op.
type windowOp[A any] struct {
	one    engine.OneRow
	cfg    Op[A]
	tm     *engine.Timers
	byFire *state.Map[int64, panes[A]] // a drained table waits on its free list
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
	return &windowOp[A]{cfg: cfg, byFire: state.NewMap[int64, panes[A]]()}
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

// pane returns the accumulator of key's window in p, the table of the
// window's start, opening it on first touch. This is the one new-window
// protocol ProcessBatch and Restore share: the key — possibly a view
// into a batch's arena — is canonicalized before the state outlives it
// (a clone for string keys, free for every other kind: intern hot
// string keys as symbols) and the accumulator is Init-reset. The table,
// and its fire time's event timer, came from table.
func (op *windowOp[A]) pane(p *panes[A], key tuple.Key) *A {
	accs := p.accs
	if key.Kind() == tuple.KindStr {
		if acc := accs.Get(key); acc != nil {
			return acc
		}
		key = key.Canon()
	}
	acc, created := accs.GetOrCreate(key)
	if created {
		op.cfg.Init(acc)
	}
	return acc
}

// table returns the pane table of the windows starting at start,
// opening a recycled one (and its timer) on first touch.
func (op *windowOp[A]) table(start int64) *panes[A] {
	at := op.fireAt(start)
	p, created := op.byFire.GetOrCreate(at)
	if created {
		if p.accs == nil {
			p.accs = state.NewMapWith[tuple.Key, A](keyHash)
		}
		p.start = start
		if op.tm != nil {
			op.tm.RegisterEvent(at)
		}
	}
	return p
}

// Process implements engine.Operator: t takes ProcessBatch's path as
// a one-row batch.
func (op *windowOp[A]) Process(c engine.Collector, t *tuple.Tuple) error {
	return op.one.Process(op, c, t)
}

// ProcessBatch implements engine.BatchOperator: each row folds into the
// pane of every window covering its event time — the starts in
// (et-Size, et] on the Slide grid — that has not fired yet, with its key
// and event time read from the batch's columns in place. The watermark
// is read once: it only advances between batches, never inside one.
func (op *windowOp[A]) ProcessBatch(c engine.Collector, b *tuple.Batch) error {
	if op.cfg.KeyField >= 0 && op.cfg.KeyField >= b.Cols() {
		return fmt.Errorf("window: key field %d but batch has %d columns", op.cfg.KeyField, b.Cols())
	}
	wm := op.watermark()
	// Most rows fall in the window the row before them did: last is
	// that window's table. Nothing drains a table mid-batch, so last
	// stays valid until the call returns.
	var last *panes[A]
	for r := 0; r < b.Len(); r++ {
		var key tuple.Key
		if op.cfg.KeyField >= 0 {
			key = b.Key(op.cfg.KeyField, r)
		}
		et := b.Event(r)
		accepted := false
		for start := floorDiv(et, op.cfg.Slide) * op.cfg.Slide; start > et-op.cfg.Size; start -= op.cfg.Slide {
			if op.fireAt(start) > wm {
				if last == nil || last.start != start {
					last = op.table(start)
				}
				op.cfg.Add(op.pane(last, key), b, r)
				accepted = true
			}
		}
		if !accepted {
			op.late++ // every window covering the row had fired: it is dropped
		}
	}
	return nil
}

// OnTimer implements engine.TimerHandler: drain the pane table of this
// fire time whole, emitting its windows (they share one span) in
// first-touch order, then recycle the table.
func (op *windowOp[A]) OnTimer(c engine.Collector, kind engine.TimerKind, at int64) error {
	if kind != engine.EventTimer {
		return nil
	}
	p := op.byFire.Get(at)
	if p == nil {
		return nil // shared per-task timer service: someone else's timer
	}
	w := Span{p.start, p.start + op.cfg.Size}
	p.accs.Range(func(key tuple.Key, acc *A) bool {
		op.cfg.Emit(c, key, w, acc)
		return true
	})
	p.accs.Clear()
	op.byFire.Delete(at)
	return nil
}

// FlushOpen emits every open window, fire times ascending and each in
// first-touch order, and clears the state. Harnesses without watermark
// infrastructure (operator profiling, batch drains) use it as the
// end-of-input flush.
func (op *windowOp[A]) FlushOpen(c engine.Collector) error {
	fires := make([]int64, 0, op.byFire.Len())
	op.byFire.Range(func(at int64, _ *panes[A]) bool {
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
// tables are not encoded — Restore rebuilds them (and re-registers the
// event timers) from the windows themselves.
func (op *windowOp[A]) Snapshot(enc *checkpoint.Encoder) error {
	if op.cfg.Save == nil || op.cfg.Load == nil {
		return fmt.Errorf("window: checkpointing needs Op.Save and Op.Load")
	}
	refs := make([]paneRef[A], 0, op.OpenWindows())
	op.byFire.Range(func(_ int64, p *panes[A]) bool {
		p.accs.Range(func(key tuple.Key, acc *A) bool {
			refs = append(refs, paneRef[A]{winKey{key, p.start}, acc})
			return true
		})
		return true
	})
	slices.SortFunc(refs, func(a, b paneRef[A]) int { return compareWinKeys(a.wk, b.wk) })
	enc.Uint64(op.late)
	enc.Len(len(refs))
	for _, r := range refs {
		enc.Key(r.wk.key)
		enc.Int64(r.wk.start)
		op.cfg.Save(enc, r.acc)
	}
	return nil
}

// Restore implements checkpoint.Snapshotter, replacing the operator's
// state with the snapshot's and re-arming one event timer per distinct
// fire time.
func (op *windowOp[A]) Restore(dec *checkpoint.Decoder) error {
	if op.cfg.Save == nil || op.cfg.Load == nil {
		return fmt.Errorf("window: checkpointing needs Op.Save and Op.Load")
	}
	op.byFire.Range(func(_ int64, p *panes[A]) bool {
		p.accs.Clear()
		return true
	})
	op.byFire.Clear()
	op.late = dec.Uint64()
	n := dec.Len()
	for i := 0; i < n && dec.Err() == nil; i++ {
		key := dec.Key()
		start := dec.Int64()
		p := op.table(start)
		if p.accs.Get(key) != nil {
			return fmt.Errorf("window: duplicate (key, start) in snapshot")
		}
		if err := op.cfg.Load(dec, op.pane(p, key)); err != nil {
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
func (op *windowOp[A]) OpenWindows() int {
	n := 0
	op.byFire.Range(func(_ int64, p *panes[A]) bool {
		n += p.accs.Len()
		return true
	})
	return n
}

// Flusher is implemented by the window operators: FlushOpen drains all
// open state, emitting in fire-time order and within one fire time in
// the operator's deterministic order (first touch for Op, ascending key
// for SessionOp). Profiling harnesses use it in place of
// watermark-driven firing.
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
