package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"briskstream/internal/engine"
	"briskstream/internal/tuple"
)

// The tracer records at the engine.Operator boundary, from the
// benchmark's side of it: every spout, operator and sink of a traced
// run is wrapped, each wrapper accumulates calls, records and busy time
// on every call and keeps a span for every spanEvery-th call. Nothing
// inside the engine is instrumented. A task (replication is 1, so one
// wrapper is one task) is in exactly one of four states at any instant:
//
//	self  inside Next/Process/ProcessBatch/OnTimer, outside Send
//	send  inside Collector.Send/ForwardRows: dispatch, ring put, blocked
//	idle  between two calls: the engine's loop — ring get, wait, recycle
//
// and self + send + idle must add up to the run's wall time.
type tracer struct {
	base  time.Time
	tasks []*taskTrace
	begun int64 // ns since base
	ended int64
	wall  time.Duration // Result.Duration of the traced run
}

const (
	spanEvery = 1024
	spanCap   = 1 << 13 // per task
)

type span struct {
	start, end int64 // ns since tracer.base
}

type taskTrace struct {
	tr   *tracer
	name string
	role string // "source", "operator" or "sink"

	calls, recsIn, recsOut int64
	busyNs, sendNs, gapNs  int64
	first, last            int64 // start of the first call, end of the last
	spans                  []span
	coll                   tcoll
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

func (tr *tracer) begin() { tr.begun = tr.now() }

func (tr *tracer) end(wall time.Duration) { tr.ended, tr.wall = tr.now(), wall }

func (tr *tracer) task(name, role string) *taskTrace {
	tt := &taskTrace{tr: tr, name: name, role: role, first: -1, spans: make([]span, 0, spanCap)}
	tt.coll.tt = tt
	tr.tasks = append(tr.tasks, tt)
	return tt
}

// wrap replaces every builder of the topology with one that wraps what
// the original builds.
func (tr *tracer) wrap(topo *engine.Topology) {
	for name, mk := range topo.Spouts {
		topo.Spouts[name] = func() engine.Spout {
			return &tracedSpout{inner: mk(), tt: tr.task(name, "source")}
		}
	}
	for name, mk := range topo.Operators {
		role := "operator"
		if n := topo.App.Node(name); n != nil && n.IsSink {
			role = "sink"
		}
		topo.Operators[name] = func() engine.Operator {
			op := tracedOp{inner: mk(), tt: tr.task(name, role)}
			if _, ok := op.inner.(engine.WatermarkHandler); ok {
				return &tracedWmOp{op}
			}
			return &op
		}
	}
}

// enter and leave bracket one call into the wrapped code.
func (tt *taskTrace) enter(c engine.Collector) (*tcoll, int64) {
	start := tt.tr.now()
	if tt.first < 0 {
		tt.first = start
	} else {
		tt.gapNs += start - tt.last
	}
	if tt.coll.Collector != c { // the engine hands a task one collector for its whole run
		tt.coll.Collector = c
		tt.coll.fwd, _ = c.(rowForwarder)
	}
	return &tt.coll, start
}

func (tt *taskTrace) leave(start int64, recs int) {
	end := tt.tr.now()
	tt.busyNs += end - start
	tt.last = end
	tt.recsIn += int64(recs)
	if tt.calls++; tt.calls%spanEvery == 0 && len(tt.spans) < cap(tt.spans) {
		tt.spans = append(tt.spans, span{start, end})
	}
}

// rowForwarder is the bulk-forwarding extension of the engine's
// collector (internal/vec.RowForwarder), declared structurally.
type rowForwarder interface {
	ForwardRows(b *tuple.Batch, sel []int32, stream tuple.StreamID)
}

// tcoll is the collector a wrapped operator sees. It embeds the
// engine's collector, so a method added to engine.Collector passes
// through untouched, and times the two calls that hand output to the
// engine.
type tcoll struct {
	engine.Collector
	fwd rowForwarder
	tt  *taskTrace
}

func (c *tcoll) Send(t *tuple.Tuple) {
	s := c.tt.tr.now()
	c.Collector.Send(t)
	c.tt.sendNs += c.tt.tr.now() - s
	c.tt.recsOut++
}

func (c *tcoll) ForwardRows(b *tuple.Batch, sel []int32, stream tuple.StreamID) {
	n := b.Len()
	if sel != nil {
		n = len(sel)
	}
	if c.fwd == nil {
		// The engine's collector cannot forward rows: materialise each
		// one, as internal/vec does without a RowForwarder.
		for i := 0; i < n; i++ {
			r := i
			if sel != nil {
				r = int(sel[i])
			}
			out := c.Borrow()
			b.CopyRowTo(r, out)
			out.Stream = stream
			c.Send(out)
		}
		return
	}
	s := c.tt.tr.now()
	c.fwd.ForwardRows(b, sel, stream)
	c.tt.sendNs += c.tt.tr.now() - s
	c.tt.recsOut += int64(n)
}

type tracedSpout struct {
	inner engine.Spout
	tt    *taskTrace
}

func (s *tracedSpout) Next(c engine.Collector) error {
	tc, start := s.tt.enter(c)
	out0 := s.tt.recsOut
	err := s.inner.Next(tc)
	s.tt.leave(start, int(s.tt.recsOut-out0))
	return err
}

// tracedOp forwards every optional interface the engine type-asserts on
// an operator outside checkpointing (traced runs never checkpoint), the
// way internal/fuse does for a fused pair. It reports WantsBatches
// false when the inner operator is scalar, so wrapping never changes
// which edges the engine wires columnar.
type tracedOp struct {
	inner engine.Operator
	tt    *taskTrace
}

func (o *tracedOp) Process(c engine.Collector, t *tuple.Tuple) error {
	tc, start := o.tt.enter(c)
	err := o.inner.Process(tc, t)
	o.tt.leave(start, 1)
	return err
}

func (o *tracedOp) WantsBatches() bool {
	if _, ok := o.inner.(engine.BatchOperator); !ok {
		return false
	}
	if g, ok := o.inner.(engine.BatchGater); ok {
		return g.WantsBatches()
	}
	return true
}

func (o *tracedOp) ProcessBatch(c engine.Collector, b *tuple.Batch) error {
	bop, ok := o.inner.(engine.BatchOperator)
	if !ok {
		return fmt.Errorf("benchmark: batch delivered to scalar operator %s", o.tt.name)
	}
	tc, start := o.tt.enter(c)
	err := bop.ProcessBatch(tc, b)
	o.tt.leave(start, b.Len())
	return err
}

func (o *tracedOp) SetTimers(tm *engine.Timers) {
	if ta, ok := o.inner.(engine.TimerAware); ok {
		ta.SetTimers(tm)
	}
}

func (o *tracedOp) OnTimer(c engine.Collector, kind engine.TimerKind, at int64) error {
	h, ok := o.inner.(engine.TimerHandler)
	if !ok {
		return nil
	}
	tc, start := o.tt.enter(c)
	err := h.OnTimer(tc, kind, at)
	o.tt.leave(start, 0)
	return err
}

// tracedWmOp is tracedOp for an operator that also observes watermarks;
// it is a type of its own because the engine calls OnWatermark on every
// advance for any operator that has the method.
type tracedWmOp struct{ tracedOp }

func (o *tracedWmOp) OnWatermark(c engine.Collector, wm int64) error {
	tc, start := o.tt.enter(c)
	err := o.inner.(engine.WatermarkHandler).OnWatermark(tc, wm)
	o.tt.leave(start, 0)
	return err
}

// taskLedger is one task's row of the layer ledger.
type taskLedger struct {
	Task        string  `json:"task"`
	Role        string  `json:"role"`
	Calls       int64   `json:"calls"`
	RecordsIn   int64   `json:"records_in"`
	RecordsOut  int64   `json:"records_out"`
	SelfNs      int64   `json:"self_ns"`
	SendNs      int64   `json:"send_ns"`
	IdleNs      int64   `json:"idle_ns"`
	WallNs      int64   `json:"wall_ns"`
	ResidualPct float64 `json:"residual_pct"`
}

// ledger closes the books: idle is the gaps between calls plus the time
// before the first call and after the last, taken from the harness's
// own stamps around Engine.Run, and the residual compares the parts
// with the wall time the engine itself reports.
func (tr *tracer) ledger() []taskLedger {
	out := make([]taskLedger, 0, len(tr.tasks))
	for _, tt := range tr.tasks {
		l := taskLedger{
			Task: tt.name, Role: tt.role, Calls: tt.calls,
			RecordsIn: tt.recsIn, RecordsOut: tt.recsOut,
			SelfNs: tt.busyNs - tt.sendNs, SendNs: tt.sendNs,
			IdleNs: tt.gapNs, WallNs: int64(tr.wall),
		}
		if tt.first >= 0 {
			l.IdleNs += (tt.first - tr.begun) + (tr.ended - tt.last)
		} else {
			l.IdleNs = tr.ended - tr.begun
		}
		l.ResidualPct = math.Abs(float64(l.SelfNs+l.SendNs+l.IdleNs-l.WallNs)) / float64(l.WallNs) * 100
		out = append(out, l)
	}
	slices.SortFunc(out, func(a, b taskLedger) int { return strings.Compare(a.Task, b.Task) })
	return out
}

// writeSpans writes the sampled spans in the Chrome trace-event format
// (load the file in chrome://tracing or ui.perfetto.dev): one row per
// task, one slice per sampled call.
func (tr *tracer) writeSpans(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur,omitempty"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	var events []event
	for tid, tt := range tr.tasks {
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]string{"name": tt.name}})
		for _, s := range tt.spans {
			events = append(events, event{Name: tt.name, Ph: "X", Pid: 1, Tid: tid,
				Ts: float64(s.start-tr.begun) / 1e3, Dur: float64(s.end-s.start) / 1e3})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
