package engine

// Live telemetry wiring: RegisterObs publishes the engine's existing
// atomic counters as pull-based metric series and its lifecycle as
// journal events. Every series reads state the engine already
// maintains (task counters, inbox/ring cursors, watermark mirrors), so
// a scrape is race-free against a running engine and the data path
// gains no per-tuple work — the only hot-path addition anywhere is one
// predictable nil check at the sampled sink-latency site.

import (
	"strconv"
	"sync/atomic"
	"time"

	"briskstream/internal/obs"
)

// RegisterObs wires this engine into the metric group and journal.
// It clears the group first, so the adaptive loop — one fresh engine
// per segment — re-registers into the same group without leaking the
// dead engine's series. Call it after New and before Run.
func (e *Engine) RegisterObs(g *obs.Group, jr *obs.Journal) {
	g.Clear()
	e.jr = jr

	g.Counter("brisk_runs_total", "Engine Run invocations.", nil, e.runSeq.Load)
	g.Counter("brisk_sink_tuples_total", "Tuples received by sink tasks this run.", nil, e.sink.Load)
	g.Counter("brisk_align_timeouts_total", "Checkpoint alignment attempts abandoned by AlignTimeout this run.", nil, e.alignTimeouts.Load)
	g.Gauge("brisk_pinned_tasks", "Tasks stepped by workers pinned to their socket's CPUs this run.", nil, func() float64 {
		return float64(e.pinned.Load())
	})
	g.Counter("brisk_worker_parks_total", "Calls to park by workers that ran out of work this run, including those that found work on the recheck and returned at once; a wake claims each call at most once.", nil, func() uint64 {
		var n uint64
		for _, gr := range e.groups {
			n += gr.parks.Load()
		}
		return n
	})
	g.Counter("brisk_worker_wakes_total", "Parked workers a put, a close or a stop woke this run (at most one wake per park).", nil, func() uint64 {
		var n uint64
		for _, gr := range e.groups {
			n += gr.wakes.Load()
		}
		return n
	})
	g.Counter("brisk_queue_puts_total", "Jumbo batches inserted across all task inboxes (engine lifetime).", nil, func() uint64 {
		puts, _ := e.QueueStats()
		return puts
	})
	g.Counter("brisk_queue_gets_total", "Jumbo batches removed across all task inboxes (engine lifetime).", nil, func() uint64 {
		_, gets := e.QueueStats()
		return gets
	})

	ingest := func() uint64 {
		var n uint64
		for _, t := range e.tasks {
			if t.spout != nil {
				n += atomic.LoadUint64(&t.processed)
			}
		}
		return n
	}
	g.Counter("brisk_ingest_tuples_total", "Tuples emitted by spout tasks this run.", nil, ingest)
	g.RateWindow("brisk_ingest_rate_tps", "Rolling spout ingest rate (tuples/s).", nil, ingest)
	g.RateWindow("brisk_sink_rate_tps", "Rolling sink throughput (tuples/s).", nil, e.sink.Load)
	g.RateWindow("brisk_queue_put_rate_tps", "Rolling jumbo-batch enqueue rate (batches/s).", nil, func() uint64 {
		puts, _ := e.QueueStats()
		return puts
	})

	e.lat = g.Histogram("brisk_latency_ns", "Sampled end-to-end sink latency (ns, engine registration lifetime).", nil)
	e.obsLat = g.ValueWindow("brisk_latency_rolling_ns", "Rolling sampled sink latency (ns).", nil)

	for _, t := range e.tasks {
		tl := []obs.L{
			{Key: "op", Value: t.op},
			{Key: "task", Value: t.label},
			{Key: "socket", Value: strconv.Itoa(int(t.socket))},
		}
		g.Counter("brisk_task_processed_total", "Tuples processed per task this run.", tl, func() uint64 {
			return atomic.LoadUint64(&t.processed)
		})
		g.Counter("brisk_task_emitted_total", "Tuples emitted per task this run.", tl, func() uint64 {
			return atomic.LoadUint64(&t.emitted)
		})
		g.Counter("brisk_task_service_ns_total", "Operator service time per task this run (ns; every consumed batch, so per row it divides by the processed counter; 0 for spouts).", tl, func() uint64 {
			return atomic.LoadUint64(&t.serviceNs)
		})
		g.Counter("brisk_task_queue_wait_ns_total", "Cumulative queue wait of the task's input, weighted per tuple (each input batch's wait counted once per tuple it carries, ns), so the ratio to the batches counter is a per-tuple mean comparable across batch sizes.", tl, func() uint64 {
			return atomic.LoadUint64(&t.qwaitNs)
		})
		g.Counter("brisk_task_queue_wait_batches_total", "Tuples covered by the queue-wait accounting this run (per-tuple weighted, matching the ns counter).", tl, func() uint64 {
			return atomic.LoadUint64(&t.qwaitRows)
		})
		if t.in != nil {
			t.qwaitWin = g.ValueWindow("brisk_task_queue_wait_ns", "Rolling per-batch queue wait of the task's input (ns).", tl)
		}
		if t.operator != nil {
			t.svcWin = g.ValueWindow("brisk_task_service_ns", "Rolling operator service time per row (ns; every consumed batch, its time split equally over its rows).", tl)
		}
		if t.in != nil {
			g.Gauge("brisk_task_queue_depth", "Jumbo batches waiting in the task's inbox.", tl, func() float64 {
				return float64(t.in.Len())
			})
		}
		g.Gauge("brisk_task_watermark", "Task low watermark (event-time units; 0 before progress).", tl, func() float64 {
			return float64(presentableWM(atomic.LoadInt64(&t.wmLive)))
		})
		g.Gauge("brisk_task_watermark_lag_ms", "Wallclock minus task low watermark (ms-convention event time; 0 before progress).", tl, func() float64 {
			wm := presentableWM(atomic.LoadInt64(&t.wmLive))
			if wm == 0 {
				return 0
			}
			lag := time.Now().UnixMilli() - wm
			if lag < 0 {
				lag = 0
			}
			return float64(lag)
		})
	}

	// Per-edge ring counters: producer task → consumer task. Depth is
	// puts−gets of the edge's SPSC ring — exact, since both cursors are
	// the ring's own atomics.
	for _, t := range e.tasks {
		for _, oe := range t.outList {
			el := []obs.L{
				{Key: "producer", Value: t.label},
				{Key: "consumer", Value: oe.consumer.label},
			}
			ring := oe.ring
			g.Counter("brisk_edge_ring_puts_total", "Jumbo batches enqueued on the edge's SPSC ring (engine lifetime).", el, func() uint64 {
				puts, _ := ring.Stats()
				return puts
			})
			g.Counter("brisk_edge_ring_gets_total", "Jumbo batches dequeued from the edge's SPSC ring (engine lifetime).", el, func() uint64 {
				_, gets := ring.Stats()
				return gets
			})
			g.Gauge("brisk_edge_ring_depth", "Jumbo batches currently queued on the edge's SPSC ring.", el, func() float64 {
				puts, gets := ring.Stats()
				return float64(puts - gets)
			})
		}
	}

	if e.coord != nil {
		g.Counter("brisk_checkpoints_completed_total", "Checkpoints persisted by the coordinator.", nil, e.coord.Completed)
		g.Gauge("brisk_checkpoint_latest_id", "Highest completed checkpoint id.", nil, func() float64 {
			return float64(e.coord.LatestID())
		})
		ckptDur := g.Histogram("brisk_checkpoint_duration_seconds", "Checkpoint begin-to-persist duration (s).", nil)
		e.coord.SetOnComplete(func(id uint64, began, done time.Time) {
			d := done.Sub(began)
			ckptDur.Observe(d.Seconds())
			e.event("checkpoint_complete", "", map[string]string{
				"id":          strconv.FormatUint(id, 10),
				"duration_ms": strconv.FormatInt(d.Milliseconds(), 10),
			})
		})
	}
}

// RegisterTrace attaches a span ring to every task, so sampled tuples
// (Config.TraceSampleEvery) leave one span per hop for the tracer to
// assemble into end-to-end traces. Like RegisterObs it resets the
// tracer first, so the adaptive loop re-registers each segment's fresh
// engine into the same tracer without mixing span tables. Call it after
// New and before Run.
func (e *Engine) RegisterTrace(tr *obs.Tracer) {
	tr.Reset()
	for _, t := range e.tasks {
		t.spans = tr.AddTask(obs.TraceTask{
			Label:   t.label,
			Op:      t.op,
			Replica: t.replica,
			Socket:  int(t.socket),
			Source:  t.spout != nil,
			Sink:    t.isSink,
		}, 0)
	}
}

// presentableWM maps watermark sentinels to 0 so gauges do not swing
// between ±2^63 around real progress.
func presentableWM(wm int64) int64 {
	if wm == WatermarkMin || wm == WatermarkMax || wm == WatermarkIdle {
		return 0
	}
	return wm
}

// event emits one lifecycle event into the registered journal (no-op
// without RegisterObs). Events are rare — run/checkpoint/rescale
// cadence, never per tuple.
func (e *Engine) event(typ, task string, attrs map[string]string) {
	if e.jr == nil {
		return
	}
	e.jr.Emit(obs.Event{Type: typ, Task: task, Attrs: attrs})
}
