package engine

import (
	"fmt"
	"time"

	"briskstream/internal/obs"
	"briskstream/internal/tuple"
)

// consumeJumbo processes one received jumbo: the batch goes to the
// operator through consumeBatch, then the header's control record, if
// any, to the watermark fan-in merge or the checkpoint alignment
// protocol. It consumes the jumbo and publishes the task's counters —
// after the trailer, because a watermark that fires windows emits rows
// past the payload.
//
// The task then releases its hold on the batch, and the last of its
// readers returns it to its producer — unless the operator forwarded
// all of it to a shared stream and nothing after (see ForwardRows):
// then it is handed over (adopt) and leaves on that stream's edges, by
// the end of this call — with the trailer, if the trailer is forwarded,
// so a pass-through puts no more jumbos than it receives.
func (e *Engine) consumeJumbo(t *task, c *collector, j tuple.Jumbo) error {
	// Queue-wait attribution: diff the producer's enqueue stamp once per
	// batch, then charge it once per carried tuple — a 64-tuple jumbo
	// that waited 1ms represents 64 tuples that each waited 1ms, so the
	// cumulative counters weight by batch length (keeping the
	// ns-per-tuple ratio comparable across batch sizes). Every tuple's
	// queueing is covered (not just traced ones) at zero per-tuple cost;
	// a batch replayed after barrier parking counts its park time too —
	// it really did wait that long. A punctuation-only jumbo carries no
	// tuple and so stays out of the counters, like every data counter.
	// The rolling window still observes the raw per-jumbo wait.
	var qwait int64
	if j.EnqNs != 0 {
		qwait = max(time.Now().UnixNano()-j.EnqNs, 0)
		n := uint64(j.Len())
		c.qwaitNs += uint64(qwait) * n
		c.qwaitRows += n
		if t.qwaitWin != nil {
			t.qwaitWin.Observe(float64(qwait))
		}
	}
	var err error
	var fwd *fanout // the shared stream the batch was handed over to
	if j.Batch != nil {
		err = e.consumeBatch(t, c, j.Batch, qwait)
		if c.fwdB != nil && err == nil {
			if err = e.adopt(t, c, j); err == nil {
				fwd = c.fwdF
			}
		}
		c.fwdB = nil // a pending forward dies with a failed call
		if fwd == nil && j.Batch.Release() {
			// The last reader parks the drained batch on the reverse free
			// ring of the edge it arrived over — consumer puts, producer
			// gets, the FreeRing's SPSC discipline. A full ring drops it
			// to the GC.
			j.Batch.Reset()
			e.tasks[j.Producer].out[t.id].free.TryPut(j.Batch)
		}
	}
	if err == nil {
		switch p := j.Punct; {
		case p.Kind == tuple.PunctWatermark:
			err = e.handlePunct(t, c, p.Event, p.Ts, j.Producer)
		case p.Kind == tuple.PunctBarrier && p.Event == barrierDone:
			err = e.handleDoneBarrier(t, c, j.Producer)
		case p.Kind == tuple.PunctBarrier:
			err = e.handleBarrier(t, c, uint64(p.Event), j.Producer)
		}
	}
	if err == nil && fwd != nil && fwd.batch == j.Batch {
		err = e.flushFan(t, fwd) // the trailer did not take it along
	}
	c.publish()
	return err
}

// arrived accounts a batch reaching a sink: the run's sink count and,
// for each latency-sampled row, its end-to-end latency. The rows of one
// batch arrive together, so they share one clock read.
func (e *Engine) arrived(b *tuple.Batch) {
	n := b.Len()
	e.sink.Add(uint64(n))
	var now time.Time
	for r := 0; r < n; r++ {
		ts := b.Ts(r)
		if ts.IsZero() {
			continue
		}
		if now.IsZero() {
			now = time.Now()
		}
		ns := float64(now.Sub(ts))
		e.lat.Observe(ns)
		if e.obsLat != nil {
			e.obsLat.Observe(ns)
		}
	}
}

// consumeBatch processes the batch of a received jumbo. A task with a
// vectorized face (task.batchOp) gets the whole batch in one
// ProcessBatch call — the vectorized path, traced rows included.
// Everything else goes through the row adapter: each row is copied into
// the task's one input tuple and handed to Process.
//
// Either face runs inside one timed region: every batch adds its
// service time and input bytes to the task's counters (the Te and N the
// performance model consumes), feeds the rolling service window, and
// leaves one hop span per traced row.
func (e *Engine) consumeBatch(t *task, c *collector, b *tuple.Batch, qwait int64) error {
	n := b.Len()
	if t.isSink {
		e.arrived(b)
	}
	size := b.Size()
	emit0 := c.emitted
	started := time.Now()
	if bop := t.batchOp; bop != nil {
		// inB suspends the collector's ambient meta stamping: one batch
		// spans many source rows, so a single curTs/curEvent would smear
		// the first row's context over every output. Batch operators
		// stamp per row: EndRowFrom for put rows, Batch.StampMeta for
		// sent ones.
		c.inB = b
		err := bop.ProcessBatch(c, b)
		c.inB = nil
		if err != nil {
			return fmt.Errorf("engine: operator %s: %w", t.label, err)
		}
		// Settle Out only: a deferred forward is consumeJumbo's to hand
		// over, after the timed region and the spans have read b.
		if c.outB != nil {
			c.settleOut()
		}
		if c.fail != nil {
			return c.fail
		}
	} else {
		// Row adapter: the task's input tuple is refilled row after row,
		// so nothing is got or released per row.
		in := &t.row
		for r := 0; r < n; r++ {
			b.CopyRowTo(r, in)
			c.curTs, c.curEvent = in.Ts, in.Event
			c.curTrace, c.curOrigin = in.TraceID, in.TraceOrigin
			if err := t.operator.Process(c, in); err != nil {
				return fmt.Errorf("engine: operator %s: %w", t.label, err)
			}
			if c.fail != nil {
				return c.fail
			}
		}
		// The Storm-like decorator reaches ProcessBatch, and so Out,
		// through this face.
		if c.settle(); c.fail != nil {
			return c.fail
		}
	}
	dur := time.Since(started)
	c.processed += uint64(n)
	c.serviceNs += uint64(dur)
	c.inBytes += uint64(size)
	if t.svcWin != nil {
		t.svcWin.Observe(float64(dur) / float64(max(n, 1)))
	}
	if b.HasTrace() && t.spans != nil {
		batchSpans(t, b, started.UnixNano()+int64(dur), int64(dur), qwait, c.emitted-emit0)
	}
	return nil
}

// batchSpans records one hop span per traced row of a consumed batch,
// all ending when the batch's timed region did. The rows shared that
// region — one ProcessBatch call or one pass of the row adapter — so
// each is charged an equal share of its service time and of the rows
// it emitted.
func batchSpans(t *task, b *tuple.Batch, atNs, serviceNs, qwait int64, emitted uint64) {
	n := b.Len()
	for r := 0; r < n; r++ {
		id := b.TraceID(r)
		if id == 0 {
			continue
		}
		t.spans.Append(obs.Span{
			TraceID:     id,
			OriginNs:    b.TraceOrigin(r),
			AtNs:        atNs,
			QueueWaitNs: qwait,
			ServiceNs:   serviceNs / int64(n),
			Emitted:     emitted / uint64(n),
			Kind:        obs.SpanHop,
		})
	}
}
