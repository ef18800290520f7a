package main

import (
	"math"
	"time"

	"briskstream/internal/engine"
	"briskstream/internal/tuple"
)

// perLayer is the per-layer metric table. The first group comes from
// the traced run of the workload itself (the ledger); the second from
// microbenchmarks that call each layer's public constructor and core
// verbs directly, a fixed operation count, fastest of three. Every
// traced run reports all of them: the microbenchmarks do not depend on
// the workload, and reading them beside any workload's ledger is what
// says whether a layer moved or only the workload did. rlas_plan has no
// engine run of its own, so its ledger comes from a short wc_sat probe.
var perLayer = []metric{
	// From the ledger of the traced run.
	{Name: "apps.source_ns_per_rec", Unit: "ns", Better: "lower",
		What: "spout Next minus the time inside Send, per input record", Moves: "input_tps on every *_sat"},
	{Name: "apps.service_ns_per_rec", Unit: "ns", Better: "lower",
		What: "self time of all operators between spout and sink, per input record", Moves: "input_tps on wc_sat (splitter), lr_sat; fd_sat barely"},
	{Name: "apps.sink_ns_per_rec", Unit: "ns", Better: "lower",
		What: "self time of the sink, per input record", Moves: "input_tps on wc_widekeys_sat (3 rows per sentence)"},
	{Name: "apps.bottleneck_busy_pct", Unit: "%", Better: "lower",
		What: "largest self-time share of the wall time among the tasks", Moves: "input_tps: the task to make faster"},
	{Name: "apps.records_out_per_in", Unit: "count", Better: "lower",
		What: "sink rows per input record", Moves: "nothing: a change here is a change of output"},
	{Name: "state.service_ns_per_rec", Unit: "ns", Better: "lower",
		What: "self time of the operators holding keyed state (WC counter, FD predict, LR windows), per input record", Moves: "input_tps on wc_sat (grouped) and wc_widekeys_sat (direct + fire); fd_* barely"},
	{Name: "engine.send_ns_per_out", Unit: "ns", Better: "lower",
		What: "time inside Send/ForwardRows (dispatch, ring put, blocked on a full ring) per emitted tuple", Moves: "input_tps on lr_sat, fd_sat; latency_p50_ms on fd_rate"},
	{Name: "engine.wait_share_pct", Unit: "%", Better: "lower",
		What: "share of the mean sampled latency not covered by the mean self time of one call per task: queue wait plus transfer", Moves: "latency_p50_ms, latency_p99_ms on fd_rate"},
	{Name: "engine.idle_pct", Unit: "%", Better: "higher",
		What: "idle time over all tasks / (wall x tasks): the share of their time tasks spend outside operator code and Send, waiting for input", Moves: "cpu_s_per_mrec on fd_rate"},
	{Name: "engine.allocs_per_krec", Unit: "count", Better: "lower",
		What: "heap allocations per 1000 input records over the untraced trial", Moves: "input_tps, peak_rss_mb"},
	{Name: "queue.puts_per_krec", Unit: "count", Better: "lower",
		What: "ring insertions per 1000 input records", Moves: "input_tps, cpu_s_per_mrec on fd_sat, lr_sat"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower",
		What: "wall time per record of the traced trial over the untraced one (CPU time per record on fd_rate), less one", Moves: "trust in the ledger"},
	{Name: "harness.ledger_residual_pct", Unit: "%", Better: "lower",
		What: "largest |self + send + idle - wall| / wall among the tasks; the traced run fails above 5", Moves: "trust in the ledger"},

	// Microbenchmarks, one file per layer.
	{Name: "queue.ring_putget_ns", Unit: "ns", Better: "lower",
		What: "Ring Put+Get pair, one goroutine", Moves: "input_tps, cpu_s_per_mrec on fd_sat, lr_sat; not wc_widekeys_sat"},
	{Name: "queue.inbox_fanin4_ns", Unit: "ns", Better: "lower",
		What: "Put into one of four bound rings + Inbox.Get", Moves: "input_tps on lr_sat (fan-in at toll_notify and sink)"},
	{Name: "queue.freering_ns", Unit: "ns", Better: "lower",
		What: "FreeRing TryPut+TryGet pair", Moves: "input_tps on fd_sat (batch recycling)"},
	{Name: "tuple.pool_getput_ns", Unit: "ns", Better: "lower",
		What: "Pool Get+Release pair", Moves: "input_tps on wc_sat (10 pooled tuples per sentence)"},
	{Name: "tuple.batch_append_ns", Unit: "ns", Better: "lower",
		What: "Batch.Append of a (symbol, 60-byte string) tuple, Reset every 64", Moves: "input_tps on fd_sat (arena copies)"},
	{Name: "tuple.marshal_ns", Unit: "ns", Better: "lower",
		What: "Marshal+Unmarshal of that tuple", Moves: "nothing here (serialisation is off); the Storm-like path"},
	{Name: "tuple.key_hash_ns", Unit: "ns", Better: "lower",
		What: "Tuple.Hash of a 10-byte string field", Moves: "input_tps where an edge is fields-grouped"},
	{Name: "vec.select_ns_per_row", Unit: "ns", Better: "lower",
		What: "SelectStrNonEmpty over a 64-row batch, per row", Moves: "input_tps on wc_sat (parser)"},
	{Name: "tuple.intern_bulk_us_per_sym", Unit: "us", Better: "lower",
		What: "4096 fresh names through one InternSyms call, per name", Moves: "setup_s on wc_widekeys_sat"},
	{Name: "tuple.intern_cold_us_per_sym", Unit: "us", Better: "lower",
		What: "128 fresh names through sequential InternSym calls, per name (copies the table each time)", Moves: "nothing here: set-up bulk-interns; the path an app without pre-interning pays"},
	{Name: "window.tumbling_add_ns", Unit: "ns", Better: "lower",
		What: "WC's counter Process over 32 keys", Moves: "input_tps on wc_sat"},
	{Name: "window.tumbling_add_wide_ns", Unit: "ns", Better: "lower",
		What: "WC's counter Process over 100 000 keys", Moves: "input_tps on wc_widekeys_sat"},
	{Name: "window.batch_add_ns_per_row", Unit: "ns", Better: "lower",
		What: "WC's counter ProcessBatch, 64-row batches over 32 keys, per row", Moves: "input_tps on wc_sat (grouped mode)"},
	{Name: "window.fire_ns_per_key", Unit: "ns", Better: "lower",
		What: "AdvanceWatermark firing one window of 100 000 keys through the counter's OnTimer, per key", Moves: "input_tps, peak_rss_mb on wc_widekeys_sat"},
	{Name: "window.sliding_add_ns", Unit: "ns", Better: "lower",
		What: "SD's moving_avg Process (4 panes per reading) over 512 devices", Moves: "input_tps on lr_sat (avg_speed is the same shape)"},
	{Name: "window.session_add_ns", Unit: "ns", Better: "lower",
		What: "TW's sessionize Process over 512 words", Moves: "no workload here; the session path"},
	{Name: "state.map_upsert_ns", Unit: "ns", Better: "lower",
		What: "state.Map GetOrCreate over 100 000 resident integer keys", Moves: "input_tps on wc_widekeys_sat, lr_sat"},
	{Name: "engine.dispatch_ns", Unit: "ns", Better: "lower",
		What: "spout -> copy -> sink through engine.New/Run, wall time per tuple", Moves: "input_tps on lr_sat, fd_sat"},
	{Name: "engine.timers_ns", Unit: "ns", Better: "lower",
		What: "Timers RegisterEvent + AdvanceWatermark per timer", Moves: "input_tps on the windowed workloads"},
	{Name: "checkpoint.snapshot_ms", Unit: "ms", Better: "lower",
		What: "Snapshot of WC's counter holding 100 000 keys", Moves: "nothing here (checkpointing is off in measured runs)"},
	{Name: "checkpoint.restore_ms", Unit: "ms", Better: "lower",
		What: "Restore of that snapshot into a fresh counter", Moves: "nothing here"},
	{Name: "checkpoint.bytes", Unit: "count", Better: "lower",
		What: "size of that snapshot", Moves: "nothing here"},
	{Name: "obs.hist_observe_ns", Unit: "ns", Better: "lower",
		What: "obs.Histogram Observe", Moves: "nothing here (telemetry is off)"},
	{Name: "obs.trace_append_ns", Unit: "ns", Better: "lower",
		What: "obs.TraceRing Append", Moves: "nothing here"},
	{Name: "obs.prom_write_ms", Unit: "ms", Better: "lower",
		What: "Registry.WriteProm of an FD engine's registered series", Moves: "nothing here"},
	{Name: "model.evaluate_us", Unit: "us", Better: "lower",
		What: "model.Evaluate of WC on Server A at the seeded replication, round-robin placement", Moves: "input_tps on rlas_plan"},
	{Name: "plan.build_us", Unit: "us", Better: "lower",
		What: "plan.Build of that execution graph", Moves: "input_tps on rlas_plan"},
	{Name: "bnb.search_ms", Unit: "ms", Better: "lower",
		What: "bnb.Optimize of that graph, node limit 200", Moves: "input_tps on rlas_plan"},
	{Name: "bnb.nodes_explored", Unit: "count", Better: "lower",
		What: "nodes that search explored", Moves: "bnb.search_ms; deterministic"},
	{Name: "rlas.optimize_ms", Unit: "ms", Better: "lower",
		What: "rlas.Optimize of SD on Server B, node limit 100", Moves: "input_tps on rlas_plan"},
	{Name: "rlas.iterations", Unit: "count", Better: "lower",
		What: "scaling rounds of that run", Moves: "rlas.optimize_ms; deterministic"},
}

// detailOnly lists the numbers that exist on some workloads only.
// BENCHMARK.json's lists are flat — every workload reports every
// metric — so these live in the full record, where -compare reads them.
var detailOnly = []string{
	"latency_p99_ms", "sat.cpu_s_per_mrec", "sat.latency_p50_ms", "sat.latency_p99_ms", "load.achieved_rps",
	"harness.trial_median", "harness.trial_spread_pct", "harness.samples", "harness.init_s",
	"harness.gen_late_ms_max.<step>",
	"rate.<step>.p50_ms", "rate.<step>.p99_ms", "rate.<step>.achieved_rps", "rate.<step>.backlog_growth_ms",
	"rate.sustainable_rps",
	"plan_s", "plan_pred_mtps", "rlas.<app>@<machine>_s",
	"engine.p1_input_tps", "engine.scaling_x",
	"checkpoint.overhead_pct", "obs.overhead_pct",
}

// fastest runs f, which performs ops operations, three times and
// returns the fastest time per operation in nanoseconds.
func fastest(ops int, f func()) float64 {
	best := math.MaxFloat64
	for i := 0; i < 3; i++ {
		start := time.Now()
		f()
		best = min(best, float64(time.Since(start))/float64(ops))
	}
	return best
}

// microColl is the collector the microbenchmarks hand to an operator
// called directly. It embeds engine.Collector so a method added to the
// interface does not break it; only Borrow and Send are ever called.
type microColl struct {
	engine.Collector
	pool *tuple.Pool
	sent int
}

func newMicroColl() *microColl { return &microColl{pool: tuple.NewPool()} }

func (c *microColl) Borrow() *tuple.Tuple { return c.pool.Get() }

func (c *microColl) Send(t *tuple.Tuple) {
	c.sent++
	t.Release()
}

// runMicro runs every layer's microbenchmarks. microIntern is not among
// them: it must run before set-up grows the symbol table.
func runMicro(rep *report) error {
	for _, f := range []func(*report) error{
		microQueue, microTuple, microWindow, microEngine, microCheckpoint, microObs, microPlanner,
	} {
		if err := f(rep); err != nil {
			return err
		}
	}
	return nil
}
