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

// SessionOp configures keyed session windows: per key, consecutive
// events closer than Gap belong to one session; a session closes (and
// fires) once the watermark passes its last event plus Gap. Unlike
// fixed windows, sessions merge — an event bridging two sessions fuses
// them, which is why a Merge function is required.
type SessionOp[A any] struct {
	// KeyField is the tuple field to key by; negative sessionizes the
	// whole stream as one group.
	KeyField int
	// Gap is the inactivity gap (event-time units) that closes a
	// session. Required.
	Gap int64
	// Lateness delays each session's fire time past its end.
	Lateness int64
	// Init resets a (possibly recycled) accumulator.
	Init func(acc *A)
	// Add folds row r of a batch into the accumulator — the spec's one
	// accumulate hook, as Op.Add.
	Add func(acc *A, b *tuple.Batch, r int)
	// Merge folds src into dst when a bridging event fuses two
	// sessions. src is recycled afterward.
	Merge func(dst, src *A)
	// Emit publishes one closed session; w.End is last event + Gap. The
	// key is the typed group key (KindNone when unkeyed).
	Emit func(c engine.Collector, key tuple.Key, w Span, acc *A)
	// Save and Load (de)serialize one accumulator for checkpointing
	// (see Op.Save/Op.Load: optional, required together under
	// checkpointing, and must round-trip).
	Save func(enc *checkpoint.Encoder, acc *A)
	Load func(dec *checkpoint.Decoder, acc *A) error
}

// session is one open session window.
type session[A any] struct {
	start, end int64 // [start, end) with end = last event + gap
	acc        A
}

// sessList is the per-key list of open sessions, sorted by start.
// Sessions per key are few (gap merging collapses them), so linear
// scans beat any index. key is the canonical (owned) copy of the map
// key — the stable key every fire-bucket registration uses, so borrowed
// arena-view keys never outlive their tuple.
type sessList[A any] struct {
	s   []session[A]
	key tuple.Key
}

// skBucket lists keys with a session scheduled to fire at one instant.
type skBucket struct{ keys []tuple.Key }

type sessionOp[A any] struct {
	one    engine.OneRow
	cfg    SessionOp[A]
	tm     *engine.Timers
	byKey  *state.Map[tuple.Key, sessList[A]]
	byFire *state.Map[int64, skBucket]
	late   uint64
}

// NewSession builds the session-window operator; it panics on an
// invalid configuration (see New).
func NewSession[A any](cfg SessionOp[A]) engine.Operator {
	if cfg.Gap <= 0 {
		panic("window: session Gap must be positive")
	}
	if cfg.Lateness < 0 {
		panic("window: negative Lateness")
	}
	if cfg.Init == nil || cfg.Add == nil || cfg.Merge == nil || cfg.Emit == nil {
		panic("window: Init, Add, Merge and Emit are required for sessions")
	}
	return &sessionOp[A]{
		cfg:    cfg,
		byKey:  state.NewMapWith[tuple.Key, sessList[A]](keyHash),
		byFire: state.NewMap[int64, skBucket](),
	}
}

// SetTimers implements engine.TimerAware.
func (op *sessionOp[A]) SetTimers(tm *engine.Timers) { op.tm = tm }

func (op *sessionOp[A]) watermark() int64 {
	if op.tm == nil {
		return engine.WatermarkMin
	}
	return op.tm.Watermark()
}

// Process implements engine.Operator: t takes ProcessBatch's path as
// a one-row batch.
func (op *sessionOp[A]) Process(c engine.Collector, t *tuple.Tuple) error {
	return op.one.Process(op, c, t)
}

// ProcessBatch implements engine.BatchOperator: each row, in order,
// places its event's [et, et+Gap) proto-session, merging every open
// session of its key it overlaps. The watermark is read once: it only
// advances between batches.
func (op *sessionOp[A]) ProcessBatch(c engine.Collector, b *tuple.Batch) error {
	if op.cfg.KeyField >= 0 && op.cfg.KeyField >= b.Cols() {
		return fmt.Errorf("window: key field %d but batch has %d columns", op.cfg.KeyField, b.Cols())
	}
	wm := op.watermark()
	for r := 0; r < b.Len(); r++ {
		et := b.Event(r)
		if et+op.cfg.Gap+op.cfg.Lateness <= wm {
			// Even a session containing only this event would already
			// have fired; any session it could have extended has, too.
			op.late++
			continue
		}
		var key tuple.Key
		if op.cfg.KeyField >= 0 {
			key = b.Key(op.cfg.KeyField, r)
		}
		sl := op.byKey.Get(key)
		if sl == nil {
			// New key: canonicalize the borrowed key before it is stored (a
			// no-op, and allocation-free, for every non-string kind).
			key = key.Canon()
			sl, _ = op.byKey.GetOrCreate(key)
			sl.s = sl.s[:0]
			sl.key = key
		}
		// Build the event's [et, et+Gap) proto-session in a claimed slot at
		// the end of the key's list — not in a local, which would escape to
		// the heap through the Init/Add calls. Reviving recycled capacity
		// (rather than appending a zero value) hands Init an accumulator
		// with its previous life's internals, per the pooling contract.
		n := len(sl.s)
		if cap(sl.s) > n {
			sl.s = sl.s[:n+1]
		} else {
			sl.s = append(sl.s, session[A]{})
		}
		ns := &sl.s[n]
		ns.start, ns.end = et, et+op.cfg.Gap
		op.cfg.Init(&ns.acc)
		op.cfg.Add(&ns.acc, b, r)

		// Merge overlapping sessions (at most a contiguous run, list is
		// sorted by start), compacting the kept prefix in place.
		// Accumulators merge in start order so the result is
		// permutation-independent for commutative aggregates.
		kept := sl.s[:0]
		for i := 0; i < n; i++ {
			s := &sl.s[i]
			if s.start < ns.end && ns.start < s.end {
				if s.start < ns.start {
					// s precedes: fold ns into s's position keeping order.
					op.cfg.Merge(&s.acc, &ns.acc)
					ns.acc = s.acc
					ns.start = s.start
				} else {
					op.cfg.Merge(&ns.acc, &s.acc)
				}
				if s.end > ns.end {
					ns.end = s.end
				}
			} else {
				kept = append(kept, *s)
			}
		}
		merged := *ns
		sl.s = append(kept, merged)
		slices.SortFunc(sl.s, func(x, y session[A]) int { return cmp.Compare(x.start, y.start) })
		op.scheduleFire(sl.key, merged.end+op.cfg.Lateness)
	}
	return nil
}

// scheduleFire registers the (possibly updated) fire time for a key's
// session (callers pass the canonical stored key, never a borrowed
// arena view). Superseded registrations for earlier ends become stale;
// the fire path validates the end before emitting.
func (op *sessionOp[A]) scheduleFire(key tuple.Key, at int64) {
	b, fresh := op.byFire.GetOrCreate(at)
	if fresh {
		b.keys = b.keys[:0]
		if op.tm != nil {
			op.tm.RegisterEvent(at)
		}
	}
	b.keys = append(b.keys, key)
}

// OnTimer implements engine.TimerHandler: close every session whose
// (end + lateness) is exactly this instant, in ascending key order —
// extended sessions have a later end and simply ignore the stale timer.
func (op *sessionOp[A]) OnTimer(c engine.Collector, kind engine.TimerKind, at int64) error {
	if kind != engine.EventTimer {
		return nil
	}
	b := op.byFire.Get(at)
	if b == nil {
		return nil
	}
	slices.SortFunc(b.keys, tuple.Key.Compare)
	var prev tuple.Key
	for i, key := range b.keys {
		if i > 0 && key == prev {
			continue // duplicate registration for the same key
		}
		prev = key
		sl := op.byKey.Get(key)
		if sl == nil {
			continue
		}
		kept := sl.s[:0]
		for j := range sl.s {
			s := &sl.s[j]
			if s.end+op.cfg.Lateness == at {
				op.cfg.Emit(c, key, Span{s.start, s.end}, &s.acc)
			} else {
				kept = append(kept, *s)
			}
		}
		sl.s = kept
		if len(sl.s) == 0 {
			op.byKey.Delete(key)
		}
	}
	op.byFire.Delete(at)
	return nil
}

// FlushOpen closes every open session in (fire time, key) order.
func (op *sessionOp[A]) FlushOpen(c engine.Collector) error {
	fires := make([]int64, 0, op.byFire.Len())
	op.byFire.Range(func(at int64, _ *skBucket) bool {
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

// ValidateSnapshot implements checkpoint.Validator (see
// windowOp.ValidateSnapshot).
func (op *sessionOp[A]) ValidateSnapshot() error {
	if op.cfg.Save == nil || op.cfg.Load == nil {
		return fmt.Errorf("window: checkpointing needs SessionOp.Save and SessionOp.Load")
	}
	return nil
}

// Snapshot implements checkpoint.Snapshotter: every key's open
// sessions (sorted by key, and per key by start — the list invariant),
// plus the late counter. The fire-time index is rebuilt by Restore.
func (op *sessionOp[A]) Snapshot(enc *checkpoint.Encoder) error {
	if op.cfg.Save == nil || op.cfg.Load == nil {
		return fmt.Errorf("window: checkpointing needs SessionOp.Save and SessionOp.Load")
	}
	enc.Uint64(op.late)
	enc.Len(op.byKey.Len())
	op.byKey.RangeSorted(tuple.Key.Compare, func(key tuple.Key, sl *sessList[A]) bool {
		enc.Key(key)
		enc.Len(len(sl.s))
		for i := range sl.s {
			enc.Int64(sl.s[i].start)
			enc.Int64(sl.s[i].end)
			op.cfg.Save(enc, &sl.s[i].acc)
		}
		return true
	})
	return nil
}

// Restore implements checkpoint.Snapshotter, replacing the operator's
// state and re-arming each restored session's fire timer.
func (op *sessionOp[A]) Restore(dec *checkpoint.Decoder) error {
	if op.cfg.Save == nil || op.cfg.Load == nil {
		return fmt.Errorf("window: checkpointing needs SessionOp.Save and SessionOp.Load")
	}
	op.byKey.Clear()
	op.byFire.Clear()
	op.late = dec.Uint64()
	nk := dec.Len()
	for i := 0; i < nk && dec.Err() == nil; i++ {
		key := dec.Key()
		sl, created := op.byKey.GetOrCreate(key)
		if !created {
			return fmt.Errorf("window: duplicate session key in snapshot")
		}
		sl.s = sl.s[:0]
		sl.key = key
		ns := dec.Len()
		for j := 0; j < ns && dec.Err() == nil; j++ {
			s := session[A]{start: dec.Int64(), end: dec.Int64()}
			op.cfg.Init(&s.acc)
			if err := op.cfg.Load(dec, &s.acc); err != nil {
				return err
			}
			sl.s = append(sl.s, s)
			op.scheduleFire(key, s.end+op.cfg.Lateness)
		}
	}
	return dec.Err()
}

// LateCount reports dropped late tuples.
func (op *sessionOp[A]) LateCount() uint64 { return op.late }

// OpenSessions reports the number of open sessions across keys.
func (op *sessionOp[A]) OpenSessions() int {
	n := 0
	op.byKey.Range(func(_ tuple.Key, sl *sessList[A]) bool {
		n += len(sl.s)
		return true
	})
	return n
}
