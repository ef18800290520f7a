package engine

import (
	"math"
	"slices"
	"time"
)

// Event-time sentinels. Watermarks are int64 event-time units
// (milliseconds by convention, matching tuple.Tuple.Event).
const (
	// WatermarkMin is the initial watermark: no event-time progress yet.
	WatermarkMin = math.MinInt64
	// WatermarkMax is the largest ordinary watermark. A spout that
	// returns io.EOF has it broadcast on its behalf, so finite streams
	// flush every open window at shutdown.
	WatermarkMax = math.MaxInt64 - 1
	// WatermarkIdle marks a source (or a fully idle upstream subgraph)
	// as idle: an idle input is excluded from the fan-in min-merge so it
	// cannot hold back event time for the whole pipeline. A source
	// resumes by emitting an ordinary watermark.
	WatermarkIdle = math.MaxInt64
)

// TimerKind distinguishes the two timer domains of the service.
type TimerKind uint8

const (
	// EventTimer fires when the task's event-time watermark passes the
	// registered timestamp. Event timers never consult the wall clock.
	EventTimer TimerKind = iota
	// ProcTimer fires when wall-clock time passes the registered
	// instant (registered as time.Time, delivered as UnixNano).
	ProcTimer
)

// TimerHandler is implemented by operators (or spouts) that want OnTimer
// callbacks. OnTimer runs on the task's execution goroutine, so handlers
// may touch operator state without synchronization and emit through the
// collector like Process does.
//
// The per-task wheel is shared (operator fusion composes handlers, and
// registrations are not deduplicated), so OnTimer may be invoked for a
// timestamp the handler did not register; handlers must treat unknown
// timestamps as no-ops.
type TimerHandler interface {
	OnTimer(c Collector, kind TimerKind, at int64) error
}

// TimerAware is implemented by operators (or spouts) that need the
// task's timer service; the engine injects it before the run starts.
type TimerAware interface {
	SetTimers(tm *Timers)
}

// WatermarkHandler is implemented by operators that want to observe
// every watermark advance of their task (after due event timers fired).
// Most operators should register event timers instead.
type WatermarkHandler interface {
	OnWatermark(c Collector, wm int64) error
}

// wheelEntry is one pending timer. Operator timers carry edge ==
// operatorEdge; the engine's jumbo linger timers carry the index of the
// output edge they watch (at most one is pending per edge, see
// outEdge); barrier-alignment timeout timers carry alignTimeoutEdge plus
// seq, the alignment attempt they were armed for.
type wheelEntry struct {
	at   int64
	edge int32
	seq  uint32
}

// Sentinel edge values for engine-internal processing-time timers.
const (
	operatorEdge     int32 = -1
	alignTimeoutEdge int32 = -2
)

// wheel is a hashed timer wheel: pending timers hash into
// power-of-two slots by timestamp/tick, and advancing from time a to
// time b visits only the slots in that tick range (or each slot once,
// when the range wraps the wheel). Insertion and expiry are O(1)
// amortized regardless of how far timestamps are spread, which is why
// timer wheels — not heaps — back OS and network-stack timers.
type wheel struct {
	slots [][]wheelEntry
	mask  int64
	tick  int64
	cur   int64 // all entries at <= cur have fired
	n     int
	min   int64 // lower bound on the earliest pending timestamp
}

const wheelSlots = 256 // power of two

func (w *wheel) init(tick int64) {
	w.slots = make([][]wheelEntry, wheelSlots)
	w.mask = wheelSlots - 1
	w.tick = tick
	w.cur = math.MinInt64
	w.min = math.MaxInt64
}

// reset drops all pending timers and rewinds the wheel (between runs).
func (w *wheel) reset() {
	for i := range w.slots {
		w.slots[i] = w.slots[i][:0]
	}
	w.cur = math.MinInt64
	w.n = 0
	w.min = math.MaxInt64
}

// slotOf maps a timestamp to its slot index. Timestamps at or before
// cur hash to the slot just past cur so the next advance fires them.
func (w *wheel) slotOf(at int64) int64 {
	if at <= w.cur {
		at = w.cur + 1
	}
	return (at / w.tick) & w.mask
}

func (w *wheel) add(e wheelEntry) {
	s := w.slotOf(e.at)
	w.slots[s] = append(w.slots[s], e)
	w.n++
	if e.at < w.min {
		w.min = e.at
	}
}

// advance moves the wheel to `to`, appending every entry with at <= to
// into *out sorted by timestamp (registration order breaks ties), so
// callers fire timers in deterministic time order.
func (w *wheel) advance(to int64, out *[]wheelEntry) {
	if to <= w.cur {
		return
	}
	if w.n == 0 {
		w.cur = to
		return
	}
	fired := len(*out)
	delta := to/w.tick - w.cur/w.tick
	if w.cur == math.MinInt64 || delta < 0 /* overflowed: huge range */ || delta >= int64(len(w.slots)) {
		// The range covers the whole wheel: sweep each slot once.
		for i := range w.slots {
			w.drainSlot(i, to, out)
		}
	} else {
		for tk := w.cur / w.tick; tk <= to/w.tick; tk++ {
			w.drainSlot(int(tk&w.mask), to, out)
		}
	}
	w.cur = to
	if w.min <= to {
		// The old minimum fired; recompute exactly (O(slots+n), and only
		// on sweeps that fired something) so deadline-based parking never
		// busy-wakes on a stale lower bound.
		w.min = math.MaxInt64
		for _, slot := range w.slots {
			for _, e := range slot {
				if e.at < w.min {
					w.min = e.at
				}
			}
		}
	}
	expired := (*out)[fired:]
	slices.SortStableFunc(expired, func(a, b wheelEntry) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		}
		return 0
	})
}

// drainSlot moves the slot's due entries into *out, keeping the rest
// (entries hashed here from later wheel rounds).
func (w *wheel) drainSlot(i int, to int64, out *[]wheelEntry) {
	slot := w.slots[i]
	kept := slot[:0]
	for _, e := range slot {
		if e.at <= to {
			*out = append(*out, e)
			w.n--
		} else {
			kept = append(kept, e)
		}
	}
	w.slots[i] = kept
}

// Timers is the per-task timer service: a hashed timer wheel per time
// domain (event time driven by watermarks, processing time driven by
// the wall clock) plus the task's current event-time watermark. The
// engine owns one per task and fires due timers on the task's execution
// goroutine; operators reach it by implementing TimerAware.
//
// Timers is not safe for concurrent use — like operator state, it
// belongs to the task goroutine.
type Timers struct {
	wm      int64
	idle    bool // the task's merged input went all-idle
	event   wheel
	proc    wheel
	expired []wheelEntry // reusable scratch for advance/fire
}

// NewTimers builds a detached service (the engine builds one per task;
// operator harnesses and tests may drive one directly). Event timers
// tick in single event-time units, processing timers in milliseconds.
func NewTimers() *Timers {
	tm := &Timers{wm: WatermarkMin}
	tm.event.init(1)
	tm.proc.init(int64(time.Millisecond))
	return tm
}

// Watermark returns the task's current event-time watermark
// (WatermarkMin before any watermark arrived).
func (tm *Timers) Watermark() int64 { return tm.wm }

// RegisterEvent schedules an event-time timer: OnTimer(EventTimer, at)
// fires once the task's watermark reaches at. Registrations are not
// deduplicated; a timestamp registered twice fires twice.
func (tm *Timers) RegisterEvent(at int64) {
	tm.event.add(wheelEntry{at: at, edge: operatorEdge})
}

// RegisterProcAt schedules a processing-time timer:
// OnTimer(ProcTimer, at.UnixNano()) fires once the wall clock passes at.
func (tm *Timers) RegisterProcAt(at time.Time) {
	tm.proc.add(wheelEntry{at: at.UnixNano(), edge: operatorEdge})
}

// registerLinger schedules the engine-internal linger timer of output
// edge edge at wall-clock time at (UnixNano). The fire checks the age of
// whatever batch the edge then has open (see Engine.fireLinger).
func (tm *Timers) registerLinger(edge int, at int64) {
	tm.proc.add(wheelEntry{at: at, edge: int32(edge)})
}

// registerAlignTimeout schedules the engine-internal barrier-alignment
// deadline for alignment attempt seq (see Config.AlignTimeout).
func (tm *Timers) registerAlignTimeout(seq uint32, at time.Time) {
	tm.proc.add(wheelEntry{at: at.UnixNano(), edge: alignTimeoutEdge, seq: seq})
}

// AdvanceWatermark advances the service to wm and invokes fire for
// every due event timer in timestamp order. The engine calls it when a
// task's merged input watermark advances; operator harnesses (profiling,
// unit tests) call it directly to drive timer-driven operators without
// an engine. A fire error stops the sweep and is returned; the
// remaining due timers are lost with the failed task.
func (tm *Timers) AdvanceWatermark(wm int64, fire func(at int64) error) error {
	if wm <= tm.wm {
		return nil
	}
	tm.wm = wm
	tm.expired = tm.expired[:0]
	tm.event.advance(wm, &tm.expired)
	for _, e := range tm.expired {
		if err := fire(e.at); err != nil {
			return err
		}
	}
	return nil
}

// procPending reports whether any processing-time timer is outstanding.
func (tm *Timers) procPending() bool { return tm.proc.n > 0 }

// nextProc returns the earliest processing-time deadline. Only valid
// while procPending; the bound is conservative (never later than the
// true earliest deadline), which can wake the task early but never
// late.
func (tm *Timers) nextProc() time.Time {
	return time.Unix(0, tm.proc.min)
}

// fireProcDue advances the processing-time wheel to now and invokes
// fire for every due entry in timestamp order.
func (tm *Timers) fireProcDue(now time.Time, fire func(e wheelEntry) error) error {
	tm.expired = tm.expired[:0]
	tm.proc.advance(now.UnixNano(), &tm.expired)
	for _, e := range tm.expired {
		if err := fire(e); err != nil {
			return err
		}
	}
	return nil
}

// reset rewinds the service between engine runs.
func (tm *Timers) reset() {
	tm.wm = WatermarkMin
	tm.idle = false
	tm.event.reset()
	tm.proc.reset()
}
