package engine

import (
	"math"
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
// callbacks. OnTimer runs in the task's own steps, which one worker at a
// time takes, so handlers may touch operator state without
// synchronization and emit through the collector like Process does.
//
// Registrations are not deduplicated: a timestamp registered twice
// fires twice, so OnTimer may be invoked for a timestamp whose work the
// handler already did; handlers must treat unknown timestamps as no-ops.
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

// timeHeap is a binary min-heap of timer timestamps. Entries are bare
// timestamps, so equal ones need no tie-break: whichever pops first,
// the same timestamps fire in the same order.
type timeHeap []int64

func (h *timeHeap) push(at int64) {
	s := append(*h, at)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

// popDue removes and returns the earliest timestamp if it is at or
// before bound.
func (h *timeHeap) popDue(bound int64) (int64, bool) {
	s := *h
	if len(s) == 0 || s[0] > bound {
		return 0, false
	}
	at := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && s[r] < s[m] {
			m = r
		}
		if s[i] <= s[m] {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return at, true
}

// Timers is the per-task timer service: a min-heap of timestamps per
// time domain (event time driven by watermarks, processing time driven
// by the wall clock) plus the task's current event-time watermark. The
// engine owns one per task and fires due timers in the task's own
// steps, one at a time; operators reach it by implementing TimerAware.
//
// Timers is not safe for concurrent use — like operator state, it
// belongs to the worker stepping the task.
type Timers struct {
	wm    int64
	idle  bool // the task's merged input went all-idle
	event timeHeap
	proc  timeHeap
}

// NewTimers builds a detached service (the engine builds one per task;
// operator harnesses and tests may drive one directly).
func NewTimers() *Timers {
	return &Timers{wm: WatermarkMin}
}

// Watermark returns the task's current event-time watermark
// (WatermarkMin before any watermark arrived).
func (tm *Timers) Watermark() int64 { return tm.wm }

// RegisterEvent schedules an event-time timer: OnTimer(EventTimer, at)
// fires once the task's watermark reaches at. Registrations are not
// deduplicated; a timestamp registered twice fires twice. A timer at
// or below the current watermark fires at the next advance, or, when
// registered from OnTimer during a sweep, in that same sweep.
func (tm *Timers) RegisterEvent(at int64) { tm.event.push(at) }

// RegisterProcAt schedules a processing-time timer:
// OnTimer(ProcTimer, at.UnixNano()) fires once the wall clock passes at.
func (tm *Timers) RegisterProcAt(at time.Time) { tm.proc.push(at.UnixNano()) }

// AdvanceWatermark advances the service to wm and invokes fire for
// every due event timer in timestamp order, popping each before it
// fires. The engine calls it when a task's merged input watermark
// advances; operator harnesses (profiling, unit tests) call it directly
// to drive timer-driven operators without an engine. A fire error stops
// the sweep and is returned; the timers not yet fired stay pending.
func (tm *Timers) AdvanceWatermark(wm int64, fire func(at int64) error) error {
	if wm <= tm.wm {
		return nil
	}
	tm.wm = wm
	for {
		at, ok := tm.event.popDue(wm)
		if !ok {
			return nil
		}
		if err := fire(at); err != nil {
			return err
		}
	}
}

// nextProc returns the earliest pending processing-time deadline
// (UnixNano), or 0 when none is pending. A timer registered at or
// before the epoch reads as due at once.
func (tm *Timers) nextProc() int64 {
	if len(tm.proc) == 0 {
		return 0
	}
	return max(tm.proc[0], 1)
}

// reset rewinds the service between engine runs.
func (tm *Timers) reset() {
	tm.wm = WatermarkMin
	tm.idle = false
	tm.event = tm.event[:0]
	tm.proc = tm.proc[:0]
}
