package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"briskstream/internal/graph"
	"briskstream/internal/obs"
	"briskstream/internal/tuple"
)

// collector implements Collector for one task.
type collector struct {
	e *Engine
	t *task
	// rows is the free list of the scratch rows Borrow hands out.
	rows tuple.Pool
	// processed, emitted, serviceNs, inBytes, qwaitNs and qwaitRows are
	// the task's exact counts this run (see task); publish copies them
	// to the task's atomics.
	processed, emitted uint64
	serviceNs, inBytes uint64
	qwaitNs, qwaitRows uint64
	nexts              uint64    // spout Next calls, pacing publish and the timer poll
	seq                uint64    // spout output counter driving latency sampling
	tseq               uint64    // spout output counter driving trace sampling
	curTs              time.Time // latency timestamp of the input tuple being processed
	curEvent           int64     // event time of the input tuple (or the advancing watermark)
	// curTrace/curOrigin carry the trace context of the input tuple
	// being processed, so derived output tuples stay on the trace.
	curTrace  uint64
	curOrigin int64
	// inBatch is true while the task is inside a vectorized
	// ProcessBatch invocation: ambient per-invocation stamping is
	// suspended (there is no single "current input"), and the operator
	// stamps per-row context itself via Batch.StampMeta.
	inBatch bool
	fail    error
}

// publish makes the collector's counts visible to readers on other
// goroutines. The task is their only writer, so a store suffices; it
// runs once per consumed jumbo (spouts: every few Nexts) and at task
// exit, which keeps atomic adds off the hot path and the published
// counts exact whenever a run has ended.
func (c *collector) publish() {
	t := c.t
	atomic.StoreUint64(&t.processed, c.processed)
	atomic.StoreUint64(&t.emitted, c.emitted)
	atomic.StoreUint64(&t.serviceNs, c.serviceNs)
	atomic.StoreUint64(&t.inBytes, c.inBytes)
	atomic.StoreUint64(&t.qwaitNs, c.qwaitNs)
	atomic.StoreUint64(&t.qwaitRows, c.qwaitRows)
}

// Borrow implements Collector.
func (c *collector) Borrow() *tuple.Tuple { return c.rows.Get() }

// Send implements Collector: it stamps the row's metadata, copies it to
// every destination, and only then releases it — once, however many
// edges it fanned out to. Release recycles only a row that came from a
// Pool: a scalar operator Sending its own input (the task-local row the
// adapter fills) must not turn that row into the next Borrow's scratch.
func (c *collector) Send(out *tuple.Tuple) {
	if c.fail == nil {
		c.stamp(out)
		c.emitted++
		c.fail = c.e.dispatch(c.t, out)
	}
	out.Release()
}

// stamp fills the metadata the engine owns on an outgoing row.
func (c *collector) stamp(out *tuple.Tuple) {
	if c.t.spout != nil {
		// Source tasks count emitted tuples (not Next invocations — a
		// throttled or idle source returning without emitting produced
		// nothing, and rate metrics divide by this counter).
		c.processed++
		// Latency sampling: spouts stamp every k-th tuple.
		if c.e.cfg.LatencySampleEvery > 0 {
			c.seq++
			if c.seq%uint64(c.e.cfg.LatencySampleEvery) == 0 {
				out.Ts = time.Now()
			}
		}
		// Trace sampling: every k-th spout tuple starts a trace — a
		// fresh id, an origin timestamp, and a source span in this
		// task's ring. Off (the default) this is one predictable branch.
		if c.e.cfg.TraceSampleEvery > 0 && c.t.spans != nil {
			c.tseq++
			if c.tseq%uint64(c.e.cfg.TraceSampleEvery) == 0 {
				out.TraceID = c.e.traceSeq.Add(1)
				out.TraceOrigin = time.Now().UnixNano()
				c.t.spans.Append(obs.Span{
					TraceID:  out.TraceID,
					OriginNs: out.TraceOrigin,
					AtNs:     out.TraceOrigin,
					Emitted:  1,
					Kind:     obs.SpanSource,
				})
			}
		}
		return
	}
	// The latency timestamp propagates downstream so sinks can measure
	// end-to-end latency; the event timestamp propagates input→output
	// unless the operator assigned its own (windows stamp aggregates
	// with the window end, for example); the trace context always
	// propagates (operators never stamp their own). During a vectorized
	// ProcessBatch there is no single current input — batch operators
	// stamp per-row context themselves via Batch.StampMeta, and the
	// ambient stamp would smear one row's context over the whole
	// batch's outputs.
	if !c.inBatch {
		out.Ts = c.curTs
		if out.Event == 0 {
			out.Event = c.curEvent
		}
		out.TraceID = c.curTrace
		out.TraceOrigin = c.curOrigin
	}
}

// ForwardRows re-emits rows of the operator's input batch on the given
// stream: a nil sel forwards every row, otherwise the selected rows in
// selection order. Each row routes exactly as if its materialized tuple
// had been Sent — same partitioning (hashes read straight from the
// batch column), same per-row metadata — but lands via a direct
// column-to-column copy into the open downstream batches, skipping the
// Borrow/CopyRowTo/Send/Append round trip that would rebuild each
// pass-through row from lanes into a tuple and straight back into
// lanes.
func (c *collector) ForwardRows(b *tuple.Batch, sel []int32, stream tuple.StreamID) {
	if c.fail != nil || b == nil {
		return
	}
	n := b.Len()
	if sel != nil {
		n = len(sel)
	}
	if n == 0 {
		return
	}
	t, e := c.t, c.e
	routes := t.routesOf(stream)
	// Every row of a batch shares its layout, so one check per route
	// covers them all.
	for _, r := range routes {
		if r.schema != nil && (!r.checked || e.cfg.ValidateEvery) {
			r.checked = true
			if err := r.schema.CheckBatch(b); err != nil {
				c.fail = r.schemaError(t, err)
				return
			}
		}
		if r.part == graph.Fields && (r.keyField < 0 || r.keyField >= b.Cols()) {
			c.fail = r.keyError(t, b.Cols())
			return
		}
	}
	for i := 0; i < n; i++ {
		row := i
		if sel != nil {
			row = int(sel[i])
		}
		for _, r := range routes {
			if r.part == graph.Broadcast {
				for _, oe := range r.edges {
					if c.fail = e.forwardRow(t, oe, b, row, stream); c.fail != nil {
						return
					}
				}
				continue
			}
			var h uint64
			if r.part == graph.Fields && len(r.edges) > 1 {
				h = b.Hash(r.keyField, row)
			}
			if c.fail = e.forwardRow(t, r.pick(h), b, row, stream); c.fail != nil {
				return
			}
		}
	}
	c.emitted += uint64(n)
}

// EmitWatermark implements Collector: it broadcasts a punctuation to
// every consumer of this task and flushes the pending output batches so
// event time is never stuck behind batching.
func (c *collector) EmitWatermark(wm int64) {
	if c.fail != nil {
		return
	}
	if wm == WatermarkIdle {
		if err := c.e.broadcastPunct(c.t, tuple.PunctWatermark, WatermarkIdle, time.Time{}); err != nil {
			c.fail = err
		}
		return
	}
	if wm <= c.t.tm.wm {
		return // watermarks are monotonic
	}
	// Advance the emitting task's own event wheel first: a source that
	// registered event timers (TimerAware spouts) gets its OnTimer
	// callbacks here, since no punctuation ever flows INTO a source.
	if err := c.advanceWatermark(wm); err != nil {
		c.fail = err
		return
	}
	if err := c.e.broadcastPunct(c.t, tuple.PunctWatermark, wm, c.latencyTs()); err != nil {
		c.fail = err
	}
}

// advanceWatermark moves the task's event-time wheel to wm, handing
// every due event timer to the task's TimerHandler, and publishes the
// new watermark to the obs mirror.
func (c *collector) advanceWatermark(wm int64) error {
	t := c.t
	if err := t.tm.AdvanceWatermark(wm, func(at int64) error {
		if t.onTimer == nil {
			return nil
		}
		return t.onTimer.OnTimer(c, EventTimer, at)
	}); err != nil {
		return err
	}
	atomic.StoreInt64(&t.wmLive, wm)
	return nil
}

// dispatch routes one output row through the task's partition
// controller: for every route subscribed to its stream it picks the
// consumer replica(s) and copies the row into the batch open on that
// edge. The row itself goes nowhere — the caller still owns it after
// the last copy — so fan-out needs no sharing protocol.
func (e *Engine) dispatch(t *task, out *tuple.Tuple) error {
	for _, r := range t.routesOf(out.Stream) {
		if r.schema != nil && (!r.checked || e.cfg.ValidateEvery) {
			// First tuple on a declared route: validate the slot layout
			// against the wiring-time schema, then trust the operator
			// (every tuple when the ValidateEvery debug mode is on).
			r.checked = true
			if err := r.schema.Check(out); err != nil {
				return r.schemaError(t, err)
			}
		}
		var h uint64
		switch r.part {
		case graph.Broadcast:
			for _, oe := range r.edges {
				if err := e.appendRow(t, oe, out); err != nil {
					return err
				}
			}
			continue
		case graph.Fields:
			if r.keyField < 0 || r.keyField >= out.Len() {
				return r.keyError(t, out.Len())
			}
			if len(r.edges) > 1 { // one replica: nothing to choose, skip the hash
				h = out.Hash(r.keyField)
			}
		}
		if err := e.appendRow(t, r.pick(h), out); err != nil {
			return err
		}
	}
	return nil
}

// appendRow copies one row into the batch open on the edge, flushing it
// when that reaches BatchSize.
func (e *Engine) appendRow(t *task, oe *outEdge, out *tuple.Tuple) error {
	if oe.batch == nil || !oe.batch.Fits(out) {
		if err := e.openBatch(t, oe); err != nil {
			return err
		}
	}
	oe.batch.Append(out)
	if oe.batch.Len() >= e.cfg.BatchSize {
		return e.flushEdge(t, oe)
	}
	return nil
}

// forwardRow is appendRow for a row forwarded column-to-column from an
// input batch.
func (e *Engine) forwardRow(t *task, oe *outEdge, src *tuple.Batch, r int, stream tuple.StreamID) error {
	if oe.batch == nil || !oe.batch.FitsRowFrom(src, stream) {
		if err := e.openBatch(t, oe); err != nil {
			return err
		}
	}
	oe.batch.AppendRowFrom(src, r, stream)
	if oe.batch.Len() >= e.cfg.BatchSize {
		return e.flushEdge(t, oe)
	}
	return nil
}

// openBatch starts a fresh batch on the edge, first flushing an open
// one (its layout does not fit the next row). The batch comes off the
// edge's free ring, allocated only while the ring warms up, and is
// linger-armed.
func (e *Engine) openBatch(t *task, oe *outEdge) error {
	if err := e.flushEdge(t, oe); err != nil {
		return err
	}
	b, ok := oe.free.TryGet()
	if !ok {
		b = tuple.NewBatch(e.cfg.BatchSize)
	}
	oe.batch = b
	oe.seq++
	if e.cfg.Linger > 0 {
		// Bound how long the batch may stay partial. The timer addresses
		// (edge, seq); if the batch flushes first, the fire finds a newer
		// seq — or nothing buffered — and skips.
		t.tm.registerLinger(oe.idx, oe.seq, time.Now().Add(e.cfg.Linger))
	}
	return nil
}

// flushEdge sends what the edge has buffered, if anything: the one
// flush behind batch-full, the linger fire and flushAll.
func (e *Engine) flushEdge(t *task, oe *outEdge) error {
	if oe.batch == nil {
		return nil
	}
	return e.send(t, oe, tuple.Punct{})
}

// send puts one jumbo on the edge's ring: the open batch, if any, under
// a header carrying the given trailer.
func (e *Engine) send(t *task, oe *outEdge, p tuple.Punct) error {
	// Queue-wait attribution: stamp the batch once at enqueue; the
	// consumer diffs at dequeue. One clock read per jumbo, zero
	// per-tuple cost.
	j := tuple.Jumbo{Producer: t.id, EnqNs: time.Now().UnixNano(), Batch: oe.batch, Punct: p}
	oe.batch = nil
	if oe.ring.Put(j) != nil {
		// Never enqueued (ring closed during shutdown): nobody
		// downstream will ever see these rows. They are copies, so
		// leaving the batch to the GC strands nothing.
		return ErrStopped
	}
	return nil
}

// route is one logical out-edge of a task: a stream subscription by one
// consumer operator, with the edges to that operator's replicas.
type route struct {
	stream   tuple.StreamID
	part     graph.Partitioning
	keyField int
	edges    []*outEdge
	rr       int // round-robin cursor for shuffle
	// schema is the declared layout of tuples emitted on this route's
	// stream (nil when undeclared); checked flips after the first tuple
	// is validated, so conformance costs one boolean branch per tuple.
	schema  *tuple.Schema
	checked bool
}

// routesOf returns the routes subscribed to one of the task's output
// streams (none: the rows go nowhere).
func (t *task) routesOf(s tuple.StreamID) []*route {
	if int(s) < len(t.byStream) {
		return t.byStream[s]
	}
	return nil
}

// pick returns the edge a row with key hash h leaves a non-broadcast
// route on.
func (r *route) pick(h uint64) *outEdge {
	switch r.part {
	case graph.Fields:
		return r.edges[h%uint64(len(r.edges))]
	case graph.Global:
		return r.edges[0]
	default: // Shuffle
		idx := r.rr
		if r.rr++; r.rr == len(r.edges) {
			r.rr = 0
		}
		return r.edges[idx]
	}
}

func (r *route) schemaError(t *task, err error) error {
	return fmt.Errorf("engine: task %s stream %q: %w", t.label, r.stream.String(), err)
}

func (r *route) keyError(t *task, width int) error {
	return &RouteError{Task: t.label, Stream: r.stream.String(), KeyField: r.keyField, Width: width}
}

// RouteError reports a tuple that could not be routed by a
// fields-grouping key: the tuple is narrower than the edge's declared
// key field. It is returned through Result.Errors instead of panicking
// inside dispatch.
type RouteError struct {
	Task     string // producing task label, e.g. "split#0"
	Stream   string // output stream of the offending edge
	KeyField int    // declared key field index
	Width    int    // actual number of values in the tuple
}

// Error implements error.
func (e *RouteError) Error() string {
	return fmt.Sprintf("engine: task %s stream %q: fields grouping needs key field %d but tuple has %d values",
		e.Task, e.Stream, e.KeyField, e.Width)
}
