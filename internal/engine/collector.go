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
	nexts              uint64 // spout Next calls, pacing publish and the timer poll
	// emits counts Out, ForwardRows and EmitWatermark calls: a spout
	// visit whose Next calls made none emitted nothing (visitSpout).
	emits    uint64
	curTs    time.Time // latency timestamp of the input tuple being processed
	curEvent int64     // event time of the input tuple (or the advancing watermark)
	// latN and traceN count spout rows since the last latency-sampled
	// and trace-sampled one; each wraps to 0 when it reaches its
	// sampling period, so sampling costs no division.
	latN, traceN int
	// curTrace/curOrigin carry the trace context of the input tuple
	// being processed, so derived output tuples stay on the trace.
	curTrace  uint64
	curOrigin int64
	// inB is the input batch while the task is inside a vectorized
	// ProcessBatch invocation (nil otherwise): ambient per-invocation
	// stamping is suspended (there is no single "current input"), the
	// operator stamps per-row context itself, and a forward of all of
	// inB may be handed over (see ForwardRows).
	inB  *tuple.Batch
	fail error

	// A deferred forward (see ForwardRows): all of inB forwarded on
	// the shared stream fwdS, whose fanout is fwdF. fwdB is nil when
	// none is pending. The next emit or punctuation settles it by
	// copying; if ProcessBatch returns with it pending, consumeJumbo
	// adopts inB as fwdF's open batch instead.
	fwdB *tuple.Batch
	fwdS tuple.StreamID
	fwdF *fanout

	// Out state (see Out). From an Out call to the next settle, outB is
	// the batch handed out for stream outS: the open batch of the shared
	// stream's fanout outF, which held outMark rows when Out took it —
	// or, with outF nil, stage, the staging batch settle routes through
	// ForwardRows. stage is allocated on first use, so runs that never
	// stage allocate none.
	outS    tuple.StreamID
	outB    *tuple.Batch
	outF    *fanout
	outMark int
	stage   *tuple.Batch
}

// publish makes the collector's counts visible to readers on other
// goroutines. The task is their only writer, so a store suffices; it
// runs once per consumed jumbo (spouts: every few Nexts) and at task
// exit, which keeps atomic adds off the hot path and the published
// counts exact whenever a run has ended.
func (c *collector) publish() {
	t := c.t
	if t.spout != nil {
		// A source processes what it emits: rows, not Next calls (a
		// throttled or idle source returning without emitting produced
		// nothing, and rate metrics divide by this counter).
		c.processed = c.emitted
	}
	atomic.StoreUint64(&t.processed, c.processed)
	atomic.StoreUint64(&t.emitted, c.emitted)
	atomic.StoreUint64(&t.serviceNs, c.serviceNs)
	atomic.StoreUint64(&t.inBytes, c.inBytes)
	atomic.StoreUint64(&t.qwaitNs, c.qwaitNs)
	atomic.StoreUint64(&t.qwaitRows, c.qwaitRows)
}

// Borrow implements Collector.
func (c *collector) Borrow() *tuple.Tuple { return c.rows.Get() }

// Send implements Collector as an adapter over Out: it stamps the row,
// copies it into Out's batch as a put row (PutTuple, by the row copy a
// forward uses) — a row of another layout starts a fresh batch, and a
// full one leaves at once — and releases
// it. Release recycles only a row that came from a Pool: a scalar
// operator Sending its own input (the task-local row the adapter
// fills) must not turn that row into the next Borrow's scratch.
func (c *collector) Send(out *tuple.Tuple) {
	if c.fail == nil {
		c.stamp(out)
		b := c.Out(out.Stream)
		if !b.Fits(out) {
			f := c.outF
			if c.settle(); f != nil && c.fail == nil {
				c.fail = c.e.flushFan(c.t, f)
			}
			b = c.Out(out.Stream)
		}
		if b.PutTuple(out); b.Full() {
			c.settle()
		}
	}
	out.Release()
}

// Out implements Collector. While the batch it handed out last is for
// the same stream and has room, it is handed out again; anything else
// settles that batch and opens the next (openOut).
func (c *collector) Out(s tuple.StreamID) *tuple.Batch {
	c.emits++
	if b := c.outB; b != nil && c.outS == s && !b.Full() {
		return b
	}
	return c.openOut(s)
}

// openOut settles the batch Out handed out last and picks the one rows
// on stream s go into. A shared stream (task.fanOf: one edge, or
// several routes each delivering every row to all of its edges) puts
// its rows straight into its open batch, which leaves on every one of
// its edges: no row is copied twice, and nothing is routed per row.
// Rows of any other stream (a shuffle or fields route over several
// replicas, or no subscriber) go into the staging batch, which settle
// routes through ForwardRows, once per batch. After a failure the rows
// go into the staging batch and are dropped.
func (c *collector) openOut(s tuple.StreamID) *tuple.Batch {
	c.settle()
	t := c.t
	if c.fail != nil {
		return c.staged(s)
	}
	if f := t.fanOf(s); f != nil {
		// An open batch of appended rows, or full (an adopted one may
		// be), leaves (openFan) and a fresh one takes the put rows.
		if f.batch == nil || !f.batch.ReadyFor(s) {
			if c.fail = c.e.openFan(t, f); c.fail != nil {
				return c.staged(s)
			}
			f.batch.ReadyFor(s)
		}
		c.outB, c.outS, c.outF, c.outMark = f.batch, s, f, f.batch.Len()
		return f.batch
	}
	c.outB, c.outS, c.outF = c.staged(s), s, nil
	return c.outB
}

// staged returns the emptied staging batch, readied for stream s.
func (c *collector) staged(s tuple.StreamID) *tuple.Batch {
	if c.stage == nil {
		c.stage = tuple.NewBatch(c.e.cfg.BatchSize)
	}
	c.stage.Reset()
	c.stage.ReadyFor(s)
	return c.stage
}

// settle finishes the batch Out handed out last, or the deferred
// forward, if either is pending (never both: each settles the other
// first). It runs before every emit or punctuation that leaves the task
// (Send, ForwardRows, EmitWatermark, the next Out of another batch) and
// after every operator callback the engine makes, so rows keep their
// emission order, precede any punctuation, and never outlive the
// callback that wrote them. The one exception is the end of
// ProcessBatch, where consumeBatch settles only Out and leaves a
// deferred forward for consumeJumbo to hand over.
func (c *collector) settle() {
	if c.outB != nil {
		c.settleOut()
	}
	if c.fwdB != nil {
		c.settleForward()
	}
}

// settleForward copies the rows of the deferred forward into the edge,
// as ForwardRows would have; its check and count were taken at the
// call.
func (c *collector) settleForward() {
	b := c.fwdB
	c.fwdB = nil
	if c.fail == nil {
		c.fail = c.e.fanRows(c.t, c.fwdF, b, nil, b.Len(), c.fwdS)
	}
}

// settleOut fails the task on a put row the batch refused, then routes
// a staged batch; a shared stream's batch gets its routes' checks, its
// new rows counted as emitted, and a flush if Out filled it.
func (c *collector) settleOut() {
	b, f := c.outB, c.outF
	c.outB = nil
	if c.fail != nil {
		return // a failed task emits nothing more
	}
	if err := b.PutErr(); err != nil {
		c.fail = fmt.Errorf("engine: task %s stream %q: %w", c.t.label, c.outS.String(), err)
		return
	}
	if f == nil {
		c.ForwardRows(b, nil, c.outS)
		b.Reset()
		return
	}
	if b.Len() == c.outMark {
		return
	}
	c.emitted += uint64(b.Len() - c.outMark)
	if c.fail = c.check(c.outS, b); c.fail == nil && b.Full() {
		c.fail = c.e.flushFan(c.t, f)
	}
}

// check validates a batch bound for stream s against each of the
// stream's routes (see route.check).
func (c *collector) check(s tuple.StreamID, b *tuple.Batch) error {
	for _, r := range c.t.routesOf(s) {
		if err := r.check(c.t, b, c.e.cfg.ValidateEvery); err != nil {
			return err
		}
	}
	return nil
}

// stamp fills the metadata the engine owns on an outgoing row.
func (c *collector) stamp(out *tuple.Tuple) {
	if c.t.spout != nil {
		// Latency sampling: spouts stamp every k-th tuple.
		if k := c.e.cfg.LatencySampleEvery; k > 0 {
			if c.latN++; c.latN == k {
				c.latN = 0
				out.Ts = time.Now()
			}
		}
		// Trace sampling: every k-th spout tuple starts a trace — a
		// fresh id, an origin timestamp, and a source span in this
		// task's ring. Off (the default) this is one predictable branch.
		if k := c.e.cfg.TraceSampleEvery; k > 0 && c.t.spans != nil {
			if c.traceN++; c.traceN == k {
				c.traceN = 0
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
	if c.inB == nil {
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
//
// On a shared stream (task.fanOf) the rows are copied once, into the
// stream's open batch, which leaves on every one of its edges. A
// forward of every row of the batch ProcessBatch is running on (a nil
// or identity sel) to a shared stream copies nothing: it is deferred.
// The routes are checked and the rows counted now; the next emit or
// punctuation in the same call settles it by copying (settleForward),
// and if none comes, consumeJumbo hands the input batch itself over to
// the stream's edges (adopt). An input batch other readers still hold
// (Batch.Shared) is never handed over: it is read-only, and they may
// switch on its stream. Its forward is copied.
func (c *collector) ForwardRows(b *tuple.Batch, sel []int32, stream tuple.StreamID) {
	c.emits++
	c.settle()
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
	// Every row of a batch shares its layout, so one check per route
	// covers them all.
	if c.fail = c.check(stream, b); c.fail != nil {
		return
	}
	t := c.t
	switch f := t.fanOf(stream); {
	case f == nil:
		c.fail = c.copyRows(b, sel, n, stream, t.routesOf(stream))
	case b == c.inB && isIdentity(sel, b.Len()) && !b.Shared():
		c.fwdB, c.fwdS, c.fwdF = b, stream, f
	default:
		c.fail = c.e.fanRows(t, f, b, sel, n, stream)
	}
	if c.fail == nil {
		c.emitted += uint64(n)
	}
}

// isIdentity reports whether sel selects every row of a batch of the
// given length in order: nil, or 0, 1, …, rows-1.
func isIdentity(sel []int32, rows int) bool {
	if sel == nil {
		return true
	}
	if len(sel) != rows {
		return false
	}
	for i, r := range sel {
		if int(r) != i {
			return false
		}
	}
	return true
}

// copyRows copies the first n selected rows of b (every row when sel is
// nil) into the open batches of the routes' edges: the routing of a
// stream that is not shared, row by row.
func (c *collector) copyRows(b *tuple.Batch, sel []int32, n int, stream tuple.StreamID, routes []*route) error {
	t, e := c.t, c.e
	for i := 0; i < n; i++ {
		row := i
		if sel != nil {
			row = int(sel[i])
		}
		for _, r := range routes {
			if r.part == graph.Broadcast {
				for _, oe := range r.edges {
					if err := e.forwardRow(t, oe, b, row, stream); err != nil {
						return err
					}
				}
				continue
			}
			var h uint64
			if r.part == graph.Fields && len(r.edges) > 1 {
				h = b.Key(r.keyField, row).Hash()
			}
			if err := e.forwardRow(t, r.pick(h), b, row, stream); err != nil {
				return err
			}
		}
	}
	return nil
}

// adopt hands the deferred forward's batch — the input batch of jumbo
// j, which the task alone holds — over to its shared stream as the open
// batch on every one of the stream's edges, after each edge sent what
// it held, instead of returning it to j's producer. That producer's
// free ring gets a batch off one of those edges' free rings in its
// place, if one is there: the task takes only from its own out-edges'
// free rings and parks only on its in-edges', so each ring keeps one
// writer and one reader, and batches circulate without allocation.
func (e *Engine) adopt(t *task, c *collector, j tuple.Jumbo) error {
	f := c.fwdF
	for _, oe := range f.edges {
		if err := e.flushEdge(t, oe); err != nil {
			return err
		}
	}
	j.Batch.Restream(c.fwdS)
	f.open(j.Batch)
	for _, oe := range f.edges {
		if spare, ok := oe.free.TryGet(); ok {
			e.tasks[j.Producer].out[t.id].free.TryPut(spare)
			break
		}
	}
	return nil
}

// EmitWatermark implements Collector: it broadcasts a punctuation to
// every consumer of this task and flushes the pending output batches so
// event time is never stuck behind batching.
func (c *collector) EmitWatermark(wm int64) {
	c.emits++
	c.settle()
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
	// Advance the emitting task's own event timers first: a source that
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

// advanceWatermark moves the task's event-time timers to wm, handing
// every due event timer to the task's TimerHandler, and publishes the
// new watermark to the obs mirror.
func (c *collector) advanceWatermark(wm int64) error {
	t := c.t
	if err := t.tm.AdvanceWatermark(wm, func(at int64) error {
		if t.onTimer == nil {
			return nil
		}
		return c.settled(t.onTimer.OnTimer(c, EventTimer, at))
	}); err != nil {
		return err
	}
	atomic.StoreInt64(&t.wmLive, wm)
	return nil
}

// settled settles after an operator callback that returned err, and
// returns err or else the collector's failure.
func (c *collector) settled(err error) error {
	c.settle()
	if err != nil {
		return err
	}
	return c.fail
}

// fanRows copies the first n selected rows of src (every row when sel
// is nil), re-stamped onto stream, once into the shared stream's open
// batch, which leaves on every one of its edges when it reaches
// BatchSize. An open batch with no room (an adopted one may be full)
// or of another layout leaves first (openFan).
func (e *Engine) fanRows(t *task, f *fanout, src *tuple.Batch, sel []int32, n int, stream tuple.StreamID) error {
	size := e.cfg.BatchSize
	for i := 0; i < n; {
		b := f.batch
		if b == nil || b.Len() >= min(b.Cap(), size) || !b.FitsRowFrom(src, stream) {
			if err := e.openFan(t, f); err != nil {
				return err
			}
			b = f.batch
		}
		for end := min(n, i+min(b.Cap(), size)-b.Len()); i < end; i++ {
			row := i
			if sel != nil {
				row = int(sel[i])
			}
			b.AppendRowFrom(src, row, stream)
		}
		if b.Len() >= size {
			if err := e.flushFan(t, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// forwardRow copies one row, forwarded column-to-column from an input
// batch, into the batch open on the edge, flushing it when that reaches
// BatchSize. An open batch whose layout the row does not share, that is
// full (adopted full, see adopt), or that is a shared stream's, open on
// other edges too, is flushed first.
func (e *Engine) forwardRow(t *task, oe *outEdge, src *tuple.Batch, r int, stream tuple.StreamID) error {
	if oe.batch == nil || oe.fan != nil || oe.batch.Full() || !oe.batch.FitsRowFrom(src, stream) {
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
// one (its layout does not fit the next row, or it is full). The batch
// comes off the edge's free ring, allocated only while the ring warms
// up, and is stamped with its opening time for the linger bound.
func (e *Engine) openBatch(t *task, oe *outEdge) error {
	if err := e.flushEdge(t, oe); err != nil {
		return err
	}
	b, ok := oe.free.TryGet()
	if !ok {
		b = tuple.NewBatch(e.cfg.BatchSize)
	}
	oe.batch = b
	if e.cfg.Linger > 0 {
		oe.openNs = e.armLinger(t)
	}
	return nil
}

// openFan starts a fresh open batch for the shared stream f. Each of
// its edges first sends what it holds — rows of another stream, or f's
// own batch, full or of another layout — so every edge keeps its rows in
// emission order. The batch comes off the first of the edges' free
// rings that has one (the last reader of a shared batch parks it on its
// own edge's), allocated only while they warm up, and is stamped with
// its opening time for the linger bound.
func (e *Engine) openFan(t *task, f *fanout) error {
	var b *tuple.Batch
	for _, oe := range f.edges {
		if err := e.flushEdge(t, oe); err != nil {
			return err
		}
		if b == nil {
			b, _ = oe.free.TryGet()
		}
	}
	if b == nil {
		b = tuple.NewBatch(e.cfg.BatchSize)
	}
	f.open(b)
	if e.cfg.Linger > 0 {
		now := e.armLinger(t)
		for _, oe := range f.edges {
			oe.openNs = now
		}
	}
	return nil
}

// armLinger returns the opening time of a batch opened now and bounds
// how long it may stay partial. A pending linger deadline is no later
// than this batch's, so it covers it: when it fires early for this
// batch, fireLinger moves it here.
func (e *Engine) armLinger(t *task) int64 {
	now := time.Now().UnixNano()
	if t.lingerAt == 0 {
		t.lingerAt = now + int64(e.cfg.Linger)
	}
	return now
}

// flushEdge sends what the edge has buffered, if anything: the one
// flush behind batch-full, the linger fire and flushAll. A shared
// stream's open batch leaves on all of the stream's edges at once.
func (e *Engine) flushEdge(t *task, oe *outEdge) error {
	switch {
	case oe.batch == nil:
		return nil
	case oe.fan != nil && oe.fan.batch == oe.batch:
		return e.flushFan(t, oe.fan)
	}
	return e.send(t, oe, tuple.Punct{}, time.Now().UnixNano())
}

// flushFan sends the shared stream's open batch, if any, on every one
// of its edges, all k jumbos stamped with one clock read.
func (e *Engine) flushFan(t *task, f *fanout) error {
	if f.batch == nil {
		return nil
	}
	now := time.Now().UnixNano()
	var err error
	for _, oe := range f.edges {
		if serr := e.send(t, oe, tuple.Punct{}, now); err == nil {
			err = serr
		}
	}
	return err
}

// send puts one jumbo on the edge's ring: the open batch, if any, under
// a header carrying the given trailer and enqueue stamp now. A shared
// stream's open batch is sealed by the first of its edges to send it:
// Share sets its share count before any consumer can see it, the stream
// opens a fresh batch for its next row, and each of its other edges
// still holds the sealed batch until it sends it too — flushFan and
// broadcastPunct send on every edge in one pass.
//
// send never blocks. A jumbo the ring has no room for, or that would
// overtake the edge's overflow, joins the overflow FIFO with its stamp,
// so its queue wait includes the time it spent there, and the task's
// worker moves it on (drain) before the task steps again. A successful
// put wakes a worker of the consumer's group if one is parked.
func (e *Engine) send(t *task, oe *outEdge, p tuple.Punct, now int64) error {
	b := oe.batch
	if f := oe.fan; f != nil {
		if f.batch == b {
			f.batch = nil
			b.Share(len(f.edges))
		}
		oe.fan = nil
	}
	// Queue-wait attribution: the consumer diffs the enqueue stamp at
	// dequeue. One clock read per flush, zero per-tuple cost.
	j := tuple.Jumbo{Producer: t.id, EnqNs: now, Batch: b, Punct: p}
	oe.batch = nil
	if oe.overHead == len(oe.over) {
		ok, err := oe.ring.TryPut(j)
		if err != nil {
			// Never enqueued (ring closed during shutdown): nobody
			// downstream will ever see these rows, so the share count this
			// edge's consumer would have released never reaches the last
			// reader, and the batch is left to the GC.
			return ErrStopped
		}
		if ok {
			oe.consumer.grp.wake()
			return nil
		}
		if t.over == 0 {
			t.st.blocked.Store(oe.ring)
		}
	}
	oe.over = append(oe.over, j)
	t.over++
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
	// schema is the declared layout of rows emitted on this route's
	// stream (nil when undeclared); checked flips after the first batch
	// is validated, so conformance costs one boolean branch per batch.
	schema  *tuple.Schema
	checked bool
}

// fanout is a shared stream of a task: one whose every route delivers
// each row to all of its edges — a route with one edge (any route at
// replication 1), or a broadcast route. Its rows need no routing and
// are written once: Out puts them straight into the stream's one open
// batch, ForwardRows copies a selection into it, and a forward of a
// whole input batch hands that batch over (adopt). The batch leaves on
// all k edges at once, with a share count of k (one edge: none).
type fanout struct {
	edges []*outEdge
	// batch is the open batch, held by every edge as its open batch
	// (nil when none is open).
	batch *tuple.Batch
}

// newFanout returns the fanout of a stream subscribed by the given
// routes, nil if the stream is not shared: no route, or a shuffle,
// fields or global route over several edges.
func newFanout(routes []*route) *fanout {
	f := &fanout{}
	for _, r := range routes {
		if r.part != graph.Broadcast && len(r.edges) > 1 {
			return nil
		}
		f.edges = append(f.edges, r.edges...)
	}
	if len(f.edges) == 0 {
		return nil
	}
	return f
}

// open makes b the stream's open batch, on each of its edges.
func (f *fanout) open(b *tuple.Batch) {
	f.batch = b
	for _, oe := range f.edges {
		oe.batch, oe.fan = b, f
	}
}

// fanOf returns the fanout of one of the task's output streams if it is
// shared, nil otherwise.
func (t *task) fanOf(s tuple.StreamID) *fanout {
	if int(s) < len(t.fans) {
		return t.fans[s]
	}
	return nil
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
	if len(r.edges) == 1 {
		return r.edges[0]
	}
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

// check validates a batch bound for the route: its layout against the
// route's schema on the route's first batch, or every batch when every
// is set, and its width against a fields key.
func (r *route) check(t *task, b *tuple.Batch, every bool) error {
	if r.schema != nil && (!r.checked || every) {
		r.checked = true
		if err := r.schema.CheckBatch(b); err != nil {
			return r.schemaError(t, err)
		}
	}
	if r.part == graph.Fields && (r.keyField < 0 || r.keyField >= b.Cols()) {
		return r.keyError(t, b.Cols())
	}
	return nil
}

func (r *route) schemaError(t *task, err error) error {
	return fmt.Errorf("engine: task %s stream %q: %w", t.label, r.stream.String(), err)
}

func (r *route) keyError(t *task, width int) error {
	return &RouteError{Task: t.label, Stream: r.stream.String(), KeyField: r.keyField, Width: width}
}

// RouteError reports rows that could not be routed by a
// fields-grouping key: they are narrower than the edge's declared key
// field. It is returned through Result.Errors, from the route check
// every batch gets before it is routed, instead of panicking on the
// key read.
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
