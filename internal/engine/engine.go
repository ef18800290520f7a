// Package engine is BriskStream's shared-memory streaming runtime
// (Section 5 and Appendix A). An application runs inside one process;
// every operator replica is a task executed by its own goroutine (the
// paper uses Java threads), consisting of an executor and a partition
// controller. What two tasks share across cores is one thing only: the
// jumbo tuple (Section 5.2) — the rows a producer has accumulated for
// one consumer as a columnar batch (tuple.Batch) under one header, at
// the cost of a single queue insertion. Every edge carries batches;
// whether a consumer runs vectorized over a batch or row by row is its
// own business (see BatchOperator). The engine's own control records —
// watermarks, checkpoint barriers, the source-done marker — are not
// tuples: each rides the header of the jumbo that carries the data it
// follows (tuple.Jumbo.Punct) and is applied after that payload.
//
// # Steps and the driver
//
// A task runs as steps: stepSpout makes one Next call on a source;
// stepTask admits one received jumbo through admit, the one
// barrier-alignment gate, and fires the timers that are due
// (fireDueTimers). A step never waits for input. It ends its task by
// returning an error: errTaskDone for a natural end, any other for a
// failure. runTask, the goroutine driver, pins the thread, does the
// waiting (one Inbox.GetUntil up to the earliest timer) and classifies
// the ending error once, into finishTask or failTask.
//
// # Row ownership
//
// The steady-state emit→dispatch→process path allocates nothing and no
// tuple ever crosses a core: rows carry typed slots (no boxing), stream
// routing indexes a per-stream route table by interned id,
// fields-grouping hashes slots inline without a heap hasher, jumbo
// headers travel by value and batches are recycled. The ownership
// rules:
//
//   - Collector.Borrow hands the operator a task-local scratch row,
//     valid until Collector.Send. Send copies the row into the open
//     batch of every edge its stream routes to and takes the row back;
//     a row that is only ever copied has one owner and no refcount.
//   - A drained batch returns to its producer over the edge's free
//     ring.
//   - An operator that processes one row at a time gets each input row
//     copied into one task-local tuple, which the next row overwrites:
//     it is valid until Process returns. To keep the row longer
//     (windows, joins, side goroutines), Clone it; values read out of a
//     tuple are immutable and may be kept as they are (arena strings
//     excepted, see package tuple).
package engine

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"briskstream/internal/checkpoint"
	"briskstream/internal/graph"
	"briskstream/internal/numa"
	"briskstream/internal/obs"
	"briskstream/internal/profile"
	"briskstream/internal/queue"
	"briskstream/internal/tuple"
)

// Collector receives the tuples an operator emits during one invocation.
//
// Borrow returns a scratch row whose slot arrays and string arena are
// reused across emissions, the caller fills fields with the typed
// AppendInt/AppendFloat/AppendBool/AppendStr/AppendSym methods (and
// Stream, for named streams — pre-intern with tuple.Intern; stream names
// are interned globally and never evicted, so they must come from the
// topology's fixed set), and Send hands it back to the engine. After
// Send the caller must not touch the tuple.
type Collector interface {
	// Borrow returns an empty row on the default stream, owned by the
	// caller until passed to Send. Outstanding rows are distinct.
	Borrow() *tuple.Tuple
	// Send emits a tuple, consuming the caller's ownership of it: a
	// borrowed row is recycled, any other tuple (the operator's own
	// input, say) is only copied. The engine stamps the event
	// timestamp; callers only fill Values and Stream.
	Send(t *tuple.Tuple)
	// EmitWatermark broadcasts a low-watermark punctuation to every
	// consumer of the task: a promise that no tuple with Event < wm will
	// follow on any of its streams. Sources drive event time with it
	// (and may pass WatermarkIdle to exclude themselves from downstream
	// fan-in merges while they have no data); the engine min-merges
	// watermarks at fan-in and forwards them automatically, so ordinary
	// operators never call it. Watermarks are monotonic — a regressing
	// value is dropped.
	EmitWatermark(wm int64)
}

// Operator is the processing interface: Process consumes one input tuple
// and emits any number of outputs through the collector. Each replica
// gets its own Operator instance, so implementations may keep
// unsynchronized state.
type Operator interface {
	Process(c Collector, t *tuple.Tuple) error
}

// OperatorFunc adapts a function to Operator.
type OperatorFunc func(c Collector, t *tuple.Tuple) error

// Process implements Operator.
func (f OperatorFunc) Process(c Collector, t *tuple.Tuple) error { return f(c, t) }

// BatchOperator is the vectorized processing interface: an operator
// that implements ProcessBatch consumes each received batch (see
// tuple.Batch) in one call, iterating its column vectors in tight
// per-kind loops instead of being invoked once per tuple. The contract
// mirrors Process:
//
//   - The batch is valid only during the call (it is recycled after);
//     string views read from it die with it.
//   - Outputs go through the collector as usual (Borrow/Send), but the
//     engine does NOT stamp ambient per-invocation metadata during
//     ProcessBatch — emit per-row context explicitly with
//     Batch.StampMeta(row, out) before Send.
//   - Watermarks and barriers never appear inside a batch: a
//     punctuation is the trailer of the jumbo header carrying the batch
//     it follows.
//
// ProcessBatch is the operator's one body. Process is its one-row
// face, OneRow.Process: decorators that drive an operator a tuple at a
// time (the Storm-like baseline, fused pairs, isolated profiling) reach
// ProcessBatch through it. Traced batches take ProcessBatch like any
// other; the engine records their per-row spans.
type BatchOperator interface {
	Operator
	ProcessBatch(c Collector, b *tuple.Batch) error
}

// OneRow is the one-row face every batch-aware operator shares: it
// keeps ProcessBatch as its only body and implements Process as
//
//	func (o *op) Process(c engine.Collector, t *tuple.Tuple) error { return o.one.Process(o, c, t) }
//
// The zero value is ready; the scratch batch is allocated on first use,
// so a task the engine feeds whole batches never allocates one.
type OneRow struct{ b *tuple.Batch }

// Process resets the scratch batch, appends t (adopting its stream,
// layout and header metadata) and hands the one-row batch to
// op.ProcessBatch.
func (o *OneRow) Process(op BatchOperator, c Collector, t *tuple.Tuple) error {
	if o.b == nil {
		o.b = tuple.NewBatch(1)
	}
	o.b.Reset()
	o.b.Append(t)
	return op.ProcessBatch(c, o.b)
}

// BatchGater lets a BatchOperator decline vectorized delivery: when
// WantsBatches reports false the engine feeds it through the row
// adapter like a scalar operator. The engine reads it once, at New. No
// operator needs it any more; it stays for decorators that wrap scalar
// and batch-aware operators alike and must not turn a scalar one
// columnar. Operators without this method get ProcessBatch whenever
// they implement BatchOperator.
type BatchGater interface {
	WantsBatches() bool
}

// Spout produces input tuples. Next is called in a loop; it emits zero or
// more tuples per call and returns io.EOF when the stream is exhausted.
type Spout interface {
	Next(c Collector) error
}

// SpoutFunc adapts a function to Spout.
type SpoutFunc func(c Collector) error

// Next implements Spout.
func (f SpoutFunc) Next(c Collector) error { return f(c) }

// Config tunes the runtime. No field gates the operator clock: every
// batch an operator consumes is timed (one clock pair per batch) and
// counted in ProfileSnapshot and the obs layer's service metrics.
type Config struct {
	// QueueCapacity bounds each task input queue (in queue slots; a
	// slot holds a jumbo tuple). Default 64. The budget is split across
	// the task's per-producer SPSC rings: each of N producers gets
	// QueueCapacity/N slots (minimum 1, rounded up to a power of two),
	// keeping total buffering close to the single-queue semantics.
	QueueCapacity int
	// BatchSize is the jumbo-tuple size: output tuples buffered per
	// consumer before one queue insertion (Section 5.2). Default 64; 1
	// is per-tuple queue insertion.
	BatchSize int
	// LatencySampleEvery stamps every k-th spout tuple with a timestamp
	// for end-to-end latency measurement. Default 64; 0 disables.
	LatencySampleEvery int
	// Linger bounds how long a partial jumbo batch may wait for more
	// tuples before it is flushed anyway: the task's timer service
	// schedules a flush when the batch is started, so low-rate streams
	// see at most Linger of batching delay instead of stranding tuples
	// until shutdown. Default 5ms; 0 disables (flush only when full).
	Linger time.Duration

	// Checkpoint enables aligned-barrier checkpointing: the coordinator
	// tracks each triggered checkpoint and persists it to its store once
	// every task has snapshotted and acked. Nil disables the whole
	// subsystem (no per-tuple cost remains on the data path).
	Checkpoint *checkpoint.Coordinator
	// CheckpointInterval triggers a checkpoint periodically while Run
	// executes. Zero means no automatic triggering — checkpoints then
	// happen only through explicit TriggerCheckpoint calls.
	CheckpointInterval time.Duration
	// AlignTimeout bounds how long a barrier alignment may park input
	// from already-aligned edges while slower edges catch up. When a
	// task's alignment is still incomplete after this much wall time,
	// the task abandons the checkpoint attempt (it will never complete)
	// and replays the parked jumbos, so pathological producer skew
	// cannot park unbounded memory. Zero disables the bound.
	AlignTimeout time.Duration

	// TraceSampleEvery stamps every k-th spout tuple with a trace id and
	// origin timestamp; the context propagates input→output like Event,
	// and every hop a traced tuple crosses appends a span record into
	// its task's ring (see RegisterTrace). Default 0 (off — untraced
	// tuples cost one predictable branch at the span site and nothing
	// else).
	TraceSampleEvery int
	// ValidateEvery checks every tuple against its route's declared
	// schema instead of only the first per route — the debug mode the
	// race test suite runs under, catching operators whose layout drifts
	// after their first emit. DefaultConfig turns it on when the
	// BRISK_VALIDATE_EVERY environment variable is non-empty (how `make
	// race`/`make check` enable it suite-wide).
	ValidateEvery bool

	// Placement maps "op#replica" labels to sockets. On platforms with
	// affinity support a placement is physical: each placed task thread
	// is bound to its socket's CPUs, exactly as if Pin were on.
	Placement map[string]numa.SocketID

	// Pin executes every task goroutine on a locked OS thread bound to
	// its socket's CPU set (sched_setaffinity on Linux; a no-op where
	// unsupported). The socket comes from Placement; without a placement
	// tasks spread round-robin across the host's sockets. Affinity is
	// restored and the thread unlocked when the task exits, so Run stays
	// reusable and threads return clean to the runtime's pool.
	// DefaultConfig turns it on when the BRISK_PIN environment variable
	// is non-empty (how CI's multicore race step enables it suite-wide).
	Pin bool
	// Host is the physical topology Pin binds against; nil probes it via
	// numa.DetectHost(). Placement sockets beyond the host's range wrap
	// around, so plans computed for the paper's 8-socket servers run
	// anywhere.
	Host *numa.Host
}

// validateEveryEnv reads the suite-wide schema debug switch once.
var validateEveryEnv = sync.OnceValue(func() bool {
	return os.Getenv("BRISK_VALIDATE_EVERY") != ""
})

// pinEnv reads the suite-wide thread-pinning switch once.
var pinEnv = sync.OnceValue(func() bool {
	return os.Getenv("BRISK_PIN") != ""
})

// DefaultConfig returns the engine's default configuration.
func DefaultConfig() Config {
	return Config{
		QueueCapacity:      64,
		BatchSize:          64,
		LatencySampleEvery: 64,
		Linger:             5 * time.Millisecond,
		ValidateEvery:      validateEveryEnv(),
		Pin:                pinEnv(),
	}
}

// Topology binds a logical graph to operator implementations.
type Topology struct {
	App         *graph.Graph
	Spouts      map[string]func() Spout
	Operators   map[string]func() Operator
	Replication map[string]int
	// Schemas declares, per operator and output stream name, the typed
	// layout of the tuples that operator emits on that stream (optional;
	// wired through to routes). The engine validates the first tuple of
	// every declared route against its schema, so a mis-typed emit fails
	// at its source instead of as a kind panic in a downstream consumer.
	Schemas map[string]map[string]*tuple.Schema
}

// Result reports one run.
type Result struct {
	// Duration is the measured wall time.
	Duration time.Duration
	// SinkTuples counts tuples received by sink tasks.
	SinkTuples uint64
	// Throughput is SinkTuples/Duration in tuples/sec.
	Throughput float64
	// Latency is this run's sampled end-to-end latency distribution
	// (ns). Quantiles are log-bucket upper bounds (≤ +25 %), the same
	// numbers /metrics publishes.
	Latency obs.HistSnapshot
	// Processed counts processed tuples per operator.
	Processed map[string]uint64
	// QueuePuts and QueueGets count jumbo-tuple queue insertions and
	// removals across all task inboxes, read from the queues' atomic
	// counters (Section 5.2's amortization is QueuePuts vs SinkTuples).
	QueuePuts, QueueGets uint64
	// AlignTimeouts counts barrier alignments abandoned because they
	// exceeded Config.AlignTimeout (each one is a dropped checkpoint
	// attempt at that task, never a dropped tuple).
	AlignTimeouts uint64
	// PinnedTasks counts the tasks whose goroutine ran bound to its
	// socket's CPU set this run (0 unless Config.Pin is on and the
	// platform supports thread affinity).
	PinnedTasks int
	// Errors aggregates operator failures (panics are recovered and
	// reported here; the rest of the pipeline is shut down cleanly).
	Errors []error
}

type task struct {
	id       int
	op       string
	replica  int
	label    string
	spout    Spout
	operator Operator
	isSink   bool
	in       *queue.Inbox[tuple.Jumbo]
	socket   numa.SocketID
	// pinCPUs is the CPU set this task's thread binds to (empty: run
	// unpinned); set at New when Config.Pin is on and supported.
	pinCPUs []int

	// row is the one tuple the row adapter copies each input row into
	// for a scalar operator (see consumeBatch). It never comes from a
	// Pool, so an operator Sending it leaves it here.
	row tuple.Tuple

	// byStream is the partition controller's route table: the logical
	// out-edges subscribed to each of the task's output streams, indexed
	// by interned stream id.
	byStream [][]*route

	// out is indexed by consumer task id (nil for tasks this one does
	// not feed); outList is the dense list of the same edges for flush
	// and shutdown, so neither path scans all tasks.
	out     []*outEdge
	outList []*outEdge

	// tm is the task's timer service: event-time timers fired by
	// watermark advances, processing-time timers (and the engine's own
	// jumbo linger flushes) fired by the wall clock, all on this task's
	// goroutine. onTimer is the operator or spout as a TimerHandler (nil
	// if it is not one), and batchOp the operator's vectorized face (nil:
	// the row adapter feeds it Process; see consumeBatch), both resolved
	// once at New.
	tm      *Timers
	onTimer TimerHandler
	batchOp BatchOperator
	// wmIn/idleIn track the low watermark (and idleness) last received
	// from each producer task, indexed by producer task id; the task's
	// own watermark is the min over its non-idle producers. prods lists
	// the producer task ids feeding this task.
	wmIn   []int64
	idleIn []bool
	prods  []int

	// Checkpoint state. lastCkpt is the highest checkpoint id this task
	// has handled (sources: injected; operators: aligned and acked).
	// While a barrier alignment is in progress, alignID names the
	// checkpoint, alignSeen (indexed by producer task id) marks the
	// producer edges whose barrier arrived, alignLeft counts the edges
	// still missing, and alignBuf holds the jumbo batches received from
	// already-aligned edges — their data belongs after the snapshot and
	// is replayed once alignment completes.
	lastCkpt  uint64
	alignID   uint64
	alignSeen []bool
	alignLeft int
	alignBuf  []tuple.Jumbo
	// alignSeq numbers this task's alignment attempts; the align-timeout
	// timer records the attempt it was armed for, so a timer whose
	// alignment already completed (or was superseded) is recognized as
	// stale and skipped.
	alignSeq uint32
	// doneIn marks producer tasks that finished (EOF) and so will never
	// emit another barrier: alignment skips them — the barrier analogue
	// of the watermark path's idle-source exclusion — or a checkpoint
	// triggered after one source of many ended would park the live
	// sources' input forever.
	doneIn []bool

	// Live counters, read atomically by Result, ProfileSnapshot and the
	// obs layer while the task runs. The collector keeps the exact
	// counts and publishes them once per consumed jumbo, so mid-run they
	// may trail the truth by one batch, never lead it. serviceNs and
	// inBytes cover every batch an operator consumed (one timed region
	// per batch, so over exactly the processed rows); spouts stay
	// untimed.
	processed uint64
	emitted   uint64
	serviceNs uint64
	inBytes   uint64
	// Queue-wait attribution: cumulative nanoseconds the task's input
	// batches spent in its communication queue, weighted per row, and
	// how many rows that covers. One clock read per jumbo — every
	// tuple's queueing is attributed without any per-tuple cost.
	qwaitNs   uint64
	qwaitRows uint64
	// spans is this task's trace span ring (nil without RegisterTrace);
	// qwaitWin/svcWin are the rolling queue-wait and service-time
	// windows (nil without RegisterObs). All written before Run starts.
	spans    *obs.TraceRing
	qwaitWin *obs.Window
	svcWin   *obs.Window
	// wmLive mirrors the task's low watermark (tm.wm, task-goroutine
	// private) atomically, so the obs layer can publish per-task
	// watermark lag without touching timer state mid-run. Stored only
	// on watermark advance — rare relative to tuples.
	wmLive int64
}

// outEdge is one (producer, consumer) communication edge: the
// producer's private SPSC ring into the consumer's inbox plus the batch
// being accumulated for the next single-slot insertion. A jumbo's
// header travels by value in the ring slot, so only batches need
// recycling.
type outEdge struct {
	consumer *task
	ring     *queue.Ring[tuple.Jumbo]
	// batch is the open batch (nil when nothing is buffered). free is
	// the edge's reverse ring — the consumer parks drained batches, the
	// producer refills them — so batch memory stays with the edge, on
	// the producer's socket, and the steady state allocates none.
	batch *tuple.Batch
	free  *queue.FreeRing[*tuple.Batch]
	// idx is this edge's index in the producer's outList (linger-flush
	// timers address edges by it); seq numbers the batches started on
	// this edge, so a linger timer for one that already flushed full is
	// recognized as stale and skipped.
	idx int
	seq uint32
}

// Engine executes one topology. An engine may be Run repeatedly; each
// Run resets the per-run counters and reopens the task queues.
type Engine struct {
	cfg   Config
	topo  Topology
	tasks []*task
	byOp  map[string][]*task
	stop  atomic.Bool
	// sink counts tuples received by sink tasks this run; lat is the one
	// latency histogram — the sinks observe sampled latencies into it,
	// Result.Latency is its per-run delta, and RegisterObs swaps in the
	// metric group's brisk_latency_ns so /metrics reads the same buckets.
	sink   atomic.Uint64
	lat    *obs.Histogram
	errs   []error
	errsMu sync.Mutex

	// pinned counts successfully pinned task threads (reset per run,
	// reported in Result.PinnedTasks).
	pinned atomic.Int32

	// coord receives checkpoint acks (nil disables checkpointing);
	// ckptReq is the id of the most recently triggered checkpoint, read
	// by source tasks between Next calls. restoreCp, set by Restore, is
	// applied by the next Run after its reset phase, so restored timers
	// and state are never clobbered by the re-run hygiene.
	coord     *checkpoint.Coordinator
	ckptSeq   atomic.Uint64 // checkpoint id allocator (engine lifetime)
	ckptReq   atomic.Uint64
	restoreCp *checkpoint.Checkpoint

	// alignTimeouts counts alignment attempts abandoned by the
	// AlignTimeout bound (reset per run, reported in Result).
	alignTimeouts atomic.Uint64

	// Live telemetry (all nil/zero without RegisterObs — the hot path
	// then pays one predictable nil check at the sampled-latency site
	// and nothing per tuple). jr receives lifecycle events; obsLat is the
	// rolling window of the sampled sink latencies; runSeq counts Runs.
	jr     *obs.Journal
	obsLat *obs.Window
	runSeq atomic.Uint64
	// traceSeq allocates trace ids for sampled spout tuples (engine
	// lifetime; id 0 is reserved for "untraced").
	traceSeq atomic.Uint64
}

// New builds an engine for the topology. Replication defaults to 1 per
// operator.
func New(topo Topology, cfg Config) (*Engine, error) {
	if err := topo.App.Validate(); err != nil {
		return nil, err
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 64
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	e := &Engine{cfg: cfg, topo: topo, byOp: map[string][]*task{}, lat: obs.NewHistogram()}
	e.coord = cfg.Checkpoint
	if e.coord != nil {
		// Checkpoint ids must keep ascending across engine lifetimes: the
		// coordinator (and its store) outlive the engine, and Begin drops
		// ids at or below the completed floor. Seed the allocator so a
		// recovered run's checkpoints land above everything completed.
		e.ckptSeq.Store(e.coord.LatestID())
		e.ckptReq.Store(e.coord.LatestID())
	}
	for _, n := range topo.App.Nodes() {
		repl := 1
		if topo.Replication != nil && topo.Replication[n.Name] > 0 {
			repl = topo.Replication[n.Name]
		}
		for i := 0; i < repl; i++ {
			t := &task{
				id:      len(e.tasks),
				op:      n.Name,
				replica: i,
				label:   fmt.Sprintf("%s#%d", n.Name, i),
				isSink:  n.IsSink,
				tm:      NewTimers(),
			}
			if n.IsSpout {
				mk, ok := topo.Spouts[n.Name]
				if !ok {
					return nil, fmt.Errorf("engine: no spout builder for %q", n.Name)
				}
				t.spout = mk()
			} else {
				mk, ok := topo.Operators[n.Name]
				if !ok {
					return nil, fmt.Errorf("engine: no operator builder for %q", n.Name)
				}
				t.operator = mk()
				t.in = queue.NewInbox[tuple.Jumbo](cfg.QueueCapacity)
			}
			if cfg.Placement != nil {
				t.socket = cfg.Placement[t.label]
			}
			e.tasks = append(e.tasks, t)
			e.byOp[n.Name] = append(e.byOp[n.Name], t)
		}
	}

	// Make the placement physical: with Pin on — or any Placement given,
	// since a socket assignment the threads ignore is decorative — every
	// task thread binds to its socket's CPU set. Tasks without a
	// placement spread round-robin over the host sockets, so plain
	// `Pin: true` on a multi-socket box already separates replicas.
	if (cfg.Pin || cfg.Placement != nil) && numa.PinSupported() {
		host := cfg.Host
		if host == nil {
			host = numa.DetectHost()
		}
		if len(host.Sockets) > 0 {
			for _, t := range e.tasks {
				if cfg.Placement == nil {
					t.socket = numa.SocketID(t.id % len(host.Sockets))
				}
				t.pinCPUs = host.CPUsOf(t.socket)
			}
		}
	}

	// QueueCapacity bounds a task's whole input queue, so split it
	// across the task's per-producer rings: with the budget divided, a
	// consumer fed by many producers buffers roughly as much as the old
	// single MPSC queue did (each ring keeps at least one slot, and
	// ring sizes round up to a power of two).
	for _, ct := range e.tasks {
		if ct.in == nil {
			continue
		}
		nprod := 0
		for _, p := range topo.App.Producers(ct.op) {
			nprod += len(e.byOp[p])
		}
		if nprod > 1 {
			ct.in.SetRingCap(cfg.QueueCapacity / nprod)
		}
	}

	// Wire routes and per-edge SPSC rings. One ring per distinct
	// (producer task, consumer task) pair: an operator pair may be
	// connected by several streams, but all of them share the edge's
	// ring, and the producing task closes its rings exactly once. Each
	// edge also gets the free ring its batches come back on.
	for _, n := range topo.App.Nodes() {
		for _, edge := range topo.App.Out(n.Name) {
			consumers := e.byOp[edge.To]
			stream := tuple.Intern(edge.Stream)
			var schema *tuple.Schema
			if topo.Schemas != nil {
				schema = topo.Schemas[n.Name][edge.Stream]
			}
			for _, pt := range e.byOp[n.Name] {
				r := &route{
					stream:   stream,
					part:     edge.Partitioning,
					keyField: edge.KeyField,
					schema:   schema,
					// Offset cursors so replicas of one producer start
					// on different consumers; each cursor still visits
					// every consumer uniformly (index before increment).
					rr: pt.replica % max(len(consumers), 1),
				}
				for _, ct := range consumers {
					for len(pt.out) <= ct.id {
						pt.out = append(pt.out, nil)
					}
					if pt.out[ct.id] == nil {
						pt.out[ct.id] = &outEdge{
							consumer: ct,
							ring:     ct.in.Bind(),
							free:     queue.NewFreeRing[*tuple.Batch](max(8, cfg.QueueCapacity)),
							idx:      len(pt.outList),
						}
						pt.outList = append(pt.outList, pt.out[ct.id])
					}
					r.edges = append(r.edges, pt.out[ct.id])
				}
				for len(pt.byStream) <= int(stream) {
					pt.byStream = append(pt.byStream, nil)
				}
				pt.byStream[stream] = append(pt.byStream[stream], r)
			}
		}
	}

	// Watermark plumbing: each consumer task tracks the last watermark
	// per producer task and min-merges across them; the timer service is
	// injected into operators and spouts that ask for it.
	for _, pt := range e.tasks {
		for _, oe := range pt.outList {
			oe.consumer.prods = append(oe.consumer.prods, pt.id)
		}
	}
	for _, t := range e.tasks {
		if t.in != nil {
			t.wmIn = make([]int64, len(e.tasks))
			for i := range t.wmIn {
				t.wmIn[i] = WatermarkMin
			}
			t.idleIn = make([]bool, len(e.tasks))
			t.alignSeen = make([]bool, len(e.tasks))
			t.doneIn = make([]bool, len(e.tasks))
		}
		if ta, ok := t.operator.(TimerAware); ok {
			ta.SetTimers(t.tm)
		}
		if ta, ok := t.spout.(TimerAware); ok {
			ta.SetTimers(t.tm)
		}
		t.onTimer, _ = t.operator.(TimerHandler)
		if bop, ok := t.operator.(BatchOperator); ok {
			if g, ok := t.operator.(BatchGater); !ok || g.WantsBatches() {
				t.batchOp = bop
			}
		}
		if t.spout != nil {
			t.onTimer, _ = t.spout.(TimerHandler)
		}
		if e.coord != nil {
			// Fail configuration errors at build time: an operator that
			// cannot snapshot (e.g. a window without Save/Load codecs)
			// must not surface as a mid-run abort at the first barrier.
			for _, member := range []any{t.operator, t.spout} {
				if v, ok := member.(checkpoint.Validator); ok {
					if err := v.ValidateSnapshot(); err != nil {
						return nil, fmt.Errorf("engine: task %s cannot checkpoint: %w", t.label, err)
					}
				}
			}
		}
	}
	return e, nil
}

// ErrStopped is returned by collectors after the engine begins shutdown.
var ErrStopped = errors.New("engine: stopped")

// broadcastPunct sends a control record (a watermark, a checkpoint
// barrier, or the done marker) to every consumer of the task —
// punctuations ignore stream subscriptions and partitioning: every
// replica of every consumer must see every watermark for the fan-in
// min-merge to be sound, and every barrier for the alignment to cover
// all producer edges. Per edge, the record becomes the trailer of the
// jumbo holding whatever data is already buffered there (an empty
// header if none), which is sent at once: the punctuation stays ordered
// behind exactly the data it follows, costs no insertion of its own
// behind a partial buffer, and neither event time nor a checkpoint is
// ever delayed by batching.
func (e *Engine) broadcastPunct(t *task, kind tuple.PunctKind, ev int64, ts time.Time) error {
	for _, oe := range t.outList {
		if err := e.send(t, oe, tuple.Punct{Kind: kind, Event: ev, Ts: ts}); err != nil {
			return err
		}
	}
	return nil
}

// handlePunct processes one received watermark punctuation (ts is the
// latency stamp it carries): record the producer's watermark, min-merge
// across all non-idle producers, and on advance fire due event timers,
// notify the operator, and forward the merged watermark downstream.
// Returns the first handler error.
func (e *Engine) handlePunct(t *task, c *collector, wm int64, ts time.Time, producer int) error {
	if wm == WatermarkIdle {
		t.idleIn[producer] = true
	} else {
		t.idleIn[producer] = false
		if wm > t.wmIn[producer] {
			t.wmIn[producer] = wm
		}
	}
	merged := int64(WatermarkIdle)
	for _, p := range t.prods {
		if t.idleIn[p] {
			continue
		}
		if t.wmIn[p] < merged {
			merged = t.wmIn[p]
		}
	}
	if merged == WatermarkIdle {
		// Every input is idle: propagate idleness (once) so downstream
		// fan-ins exclude this whole subgraph too. The watermark itself
		// does not advance — idleness is not event-time progress.
		if t.tm.idle {
			return nil
		}
		t.tm.idle = true
		return e.broadcastPunct(t, tuple.PunctWatermark, WatermarkIdle, ts)
	}
	t.tm.idle = false
	if merged <= t.tm.wm {
		return nil // not an advance (some producer still lags)
	}
	c.curTs, c.curEvent = ts, merged
	if err := c.advanceWatermark(merged); err != nil {
		return err
	}
	if wh, ok := t.operator.(WatermarkHandler); ok {
		if err := wh.OnWatermark(c, merged); err != nil {
			return err
		}
	}
	if c.fail != nil {
		return c.fail
	}
	return e.broadcastPunct(t, tuple.PunctWatermark, merged, ts)
}

// fireDueTimers fires the processing-time timers that are due by now,
// if any: linger timers flush their edge's partial buffer (if it is
// still the one they were armed for), alignment timeouts abandon their
// alignment, operator/spout timers get OnTimer.
func (e *Engine) fireDueTimers(t *task, c *collector) error {
	if !t.tm.procPending() {
		return nil
	}
	now := time.Now()
	if now.Before(t.tm.nextProc()) {
		return nil
	}
	err := t.tm.fireProcDue(now, func(en wheelEntry) error {
		if en.edge >= 0 {
			if oe := t.outList[en.edge]; oe.seq == en.seq {
				return e.flushEdge(t, oe)
			}
			return nil
		}
		if en.edge == alignTimeoutEdge {
			return e.alignTimedOut(t, c, en.seq)
		}
		if t.onTimer == nil {
			return nil
		}
		return t.onTimer.OnTimer(c, ProcTimer, en.at)
	})
	c.publish() // timers emit too
	if err != nil {
		return err
	}
	return c.fail
}

// flushAll flushes all pending buffers of a task.
func (e *Engine) flushAll(t *task) {
	for _, oe := range t.outList {
		_ = e.flushEdge(t, oe) // a closed ring only means shutdown got there first
	}
}

// Run executes the topology until every spout returns io.EOF, or for at
// most d if d > 0 (duration-bound measurement runs). It returns the run
// metrics; operator errors are collected in Result.Errors.
//
// Run may be called repeatedly on the same engine (not concurrently):
// each call resets the sink/latency/processed counters, the timer
// wheels, the watermark cursors, the checkpoint alignment state and the
// shuffle round-robin cursors, and reopens the task queues the previous
// run closed, so results never double-count and a recovery restart
// observes no residue of the failed run. Operator and spout instances
// persist across runs and keep their state — unless a Restore is
// pending, in which case every task is rebuilt from the restored
// checkpoint after the reset (and sources are sought back to their
// recorded offsets) before any task goroutine starts.
func (e *Engine) Run(d time.Duration) (*Result, error) {
	start := time.Now()
	var wg sync.WaitGroup
	e.stop.Store(false)
	e.sink.Store(0)
	lat0 := e.lat.Snapshot()
	e.errs = nil
	e.alignTimeouts.Store(0)
	e.pinned.Store(0)
	// A checkpoint requested while no run executes (or left over from a
	// killed run) must not fire mid-restart: tasks treat everything up
	// to the current request id as already handled.
	req := e.ckptReq.Load()
	for _, t := range e.tasks {
		atomic.StoreUint64(&t.processed, 0)
		atomic.StoreUint64(&t.emitted, 0)
		atomic.StoreUint64(&t.serviceNs, 0)
		atomic.StoreUint64(&t.inBytes, 0)
		atomic.StoreUint64(&t.qwaitNs, 0)
		atomic.StoreUint64(&t.qwaitRows, 0)
		t.tm.reset()
		atomic.StoreInt64(&t.wmLive, WatermarkMin)
		for i := range t.wmIn {
			t.wmIn[i] = WatermarkMin
			t.idleIn[i] = false
		}
		t.lastCkpt = req
		t.alignID = 0
		t.alignLeft = 0
		clear(t.alignSeen)
		clear(t.doneIn)
		t.alignBuf = nil // whatever a killed run parked mid-alignment
		for _, routes := range t.byStream {
			// Shuffle cursors restart at the replica-offset phase New
			// chose, so a re-run (and in particular a recovery replay)
			// distributes tuples exactly like a fresh engine would.
			for _, r := range routes {
				r.rr = t.replica % max(len(r.edges), 1)
			}
		}
		if t.in != nil {
			t.in.Reopen() // discards the jumbos a killed run stranded
		}
	}
	if e.coord != nil {
		e.coord.Abandon() // in-flight checkpoints of a previous run are dead
	}
	if cp := e.restoreCp; cp != nil {
		e.restoreCp = nil
		if err := e.applyRestore(cp); err != nil {
			return nil, err
		}
	}
	// Queue cursors are cumulative across runs; report per-run deltas.
	puts0, gets0 := e.QueueStats()

	run := e.runSeq.Add(1)
	e.event("run_start", "", map[string]string{
		"run":   strconv.FormatUint(run, 10),
		"tasks": strconv.Itoa(len(e.tasks)),
	})

	for _, t := range e.tasks {
		wg.Add(1)
		go func(t *task) {
			defer wg.Done()
			e.runTask(t)
		}(t)
	}

	// The periodic trigger lives exactly as long as the tasks do: Run
	// waits for it to exit, so it can never begin a checkpoint on the
	// (possibly shared) coordinator after Run returned.
	var ticker sync.WaitGroup
	quit := make(chan struct{})
	if e.coord != nil && e.cfg.CheckpointInterval > 0 {
		ticker.Add(1)
		go func() {
			defer ticker.Done()
			tk := time.NewTicker(e.cfg.CheckpointInterval)
			defer tk.Stop()
			for {
				select {
				case <-tk.C:
					// Periodic checkpoints do not overlap: when alignment
					// outlasts the interval, a fresh id per tick would have
					// each source pick up a different request, every fan-in
					// see its alignment overtaken, and no checkpoint ever
					// complete.
					if e.coord.Pending() == 0 {
						e.TriggerCheckpoint()
					}
				case <-quit:
					return
				}
			}
		}()
	}

	if d > 0 {
		timer := time.AfterFunc(d, func() { e.stop.Store(true) })
		defer timer.Stop()
	}
	wg.Wait()
	close(quit)
	ticker.Wait()
	elapsed := time.Since(start)

	res := &Result{
		Duration:      elapsed,
		SinkTuples:    e.sink.Load(),
		Latency:       e.lat.Snapshot().Delta(lat0),
		Processed:     map[string]uint64{},
		Errors:        e.errs,
		AlignTimeouts: e.alignTimeouts.Load(),
		PinnedTasks:   int(e.pinned.Load()),
	}
	if elapsed > 0 {
		res.Throughput = float64(res.SinkTuples) / elapsed.Seconds()
	}
	for _, t := range e.tasks {
		res.Processed[t.op] += atomic.LoadUint64(&t.processed)
	}
	puts, gets := e.QueueStats()
	res.QueuePuts, res.QueueGets = puts-puts0, gets-gets0
	e.event("run_stop", "", map[string]string{
		"run":         strconv.FormatUint(run, 10),
		"duration_ms": strconv.FormatInt(elapsed.Milliseconds(), 10),
		"sink_tuples": strconv.FormatUint(res.SinkTuples, 10),
		"errors":      strconv.Itoa(len(res.Errors)),
	})
	return res, nil
}

// QueueStats returns the cumulative jumbo-tuple queue insertions and
// removals across all task inboxes. It reads atomic counters, so it is
// safe to call while the engine runs (the metrics layer polls it the
// same way Snapshot is polled for rates).
func (e *Engine) QueueStats() (puts, gets uint64) {
	for _, t := range e.tasks {
		if t.in == nil {
			continue
		}
		p, g := t.in.Stats()
		puts += p
		gets += g
	}
	return puts, gets
}

// errTaskDone is what a step returns when its task has ended naturally:
// the spout reached EOF, or the inbox closed and drained. runTask hands
// it to finishTask and any other step error to failTask.
var errTaskDone = errors.New("engine: task done")

// runTask is the goroutine driver of one task (see the package doc).
// Its deferred exit classifies the error that ended the task, a
// recovered panic included.
func (e *Engine) runTask(t *task) {
	// Pinning first, so its deferred undo runs last: the final flush
	// still happens on the pinned thread, and the thread returns to the
	// runtime's pool with its original mask however the task exits
	// (EOF, kill, panic) — which is what keeps Run re-runnable.
	if unpin := pinThread(t.pinCPUs); unpin != nil {
		e.pinned.Add(1)
		defer unpin()
	}
	c := &collector{e: e, t: t}
	var err error
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: operator %s panicked: %v", t.label, r)
		}
		if err == errTaskDone {
			e.finishTask(t)
		} else if err != nil {
			e.failTask(err)
		}
		e.flushAll(t)
		e.finishProducing(t)
		c.publish() // however the task ended, its final counts are exact
	}()

	if t.spout != nil {
		for err == nil && !e.stop.Load() {
			err = e.stepSpout(t, c)
		}
		return
	}
	for err == nil {
		// Wake at the earliest processing-time deadline even if no input
		// flows: that is what bounds the linger latency. With no timer
		// pending the deadline stays zero, which waits for input alone.
		var deadline time.Time
		if t.tm.procPending() {
			deadline = t.tm.nextProc()
		}
		j, ok, gerr := t.in.GetUntil(deadline)
		switch {
		case gerr != nil: // closed and drained
			if err = e.drainAlignment(t, c); err == nil {
				err = errTaskDone
			}
		case ok:
			err = e.stepTask(t, c, j)
		default:
			err = e.fireDueTimers(t, c)
		}
	}
}

// stepSpout makes one Next call on the task's spout and handles what
// follows it: EOF ends the task, between calls is the checkpoint
// injection point, and every 32nd call publishes the counters and
// fires the timers that are due.
func (e *Engine) stepSpout(t *task, c *collector) error {
	err := t.spout.Next(c)
	if c.fail != nil {
		return c.fail
	}
	if err == io.EOF {
		// Finite stream: broadcast the final watermark so every open
		// window downstream fires before shutdown, and — under
		// checkpointing — the done marker, so consumers stop expecting
		// barriers from this source while other sources keep running.
		c.EmitWatermark(WatermarkMax)
		if c.fail == nil && e.coord != nil {
			c.fail = e.broadcastPunct(t, tuple.PunctBarrier, barrierDone, time.Time{})
		}
		if c.fail != nil && !errors.Is(c.fail, ErrStopped) {
			return c.fail
		}
		return errTaskDone
	}
	if err != nil {
		return fmt.Errorf("engine: spout %s: %w", t.label, err)
	}
	// Checkpoint injection point: between Next calls the source is at a
	// well-defined offset, so this is where the barrier (and the
	// source's own snapshot) is taken.
	if e.coord != nil {
		if req := e.ckptReq.Load(); req > t.lastCkpt {
			if err := e.sourceBarrier(t, c, req); err != nil {
				return err
			}
		}
	}
	// Spouts have no blocking input to piggyback on, so every few calls
	// publish the counters and, while timers (the linger flush,
	// spout-registered proc timers) pend, poll the clock.
	if c.nexts++; c.nexts&31 != 0 {
		return nil
	}
	c.publish()
	return e.fireDueTimers(t, c)
}

// stepTask admits one received jumbo and then fires the timers that
// are due.
func (e *Engine) stepTask(t *task, c *collector, j tuple.Jumbo) error {
	if err := e.admit(t, c, j); err != nil {
		return err
	}
	return e.fireDueTimers(t, c)
}

// admit is the barrier-alignment gate every jumbo passes, live or
// replayed: while an alignment is in progress and the jumbo's edge has
// already delivered its barrier, everything that edge sends belongs
// after the snapshot, so the jumbo parks until the alignment completes.
// Any other jumbo is consumed.
func (e *Engine) admit(t *task, c *collector, j tuple.Jumbo) error {
	if t.alignID != 0 && t.alignSeen[j.Producer] {
		t.alignBuf = append(t.alignBuf, j)
		return nil
	}
	return e.consumeJumbo(t, c, j)
}

// failTask handles a task-fatal dispatch or operator error: a routing
// failure (e.g. RouteError) is recorded and aborts the run; ErrStopped
// only means a downstream queue closed during shutdown, so the task
// simply exits. Either way all queues are closed so no peer blocks on a
// task that is gone.
func (e *Engine) failTask(err error) {
	if !errors.Is(err, ErrStopped) {
		e.recordErr(err)
	}
	e.stop.Store(true)
	e.closeAllQueues()
}

// finishProducing closes this task's private ring into each consumer it
// feeds. A consumer's inbox reports closed only once every bound ring is
// closed and drained, so "the last producer closes the queue" needs no
// shared refcount.
func (e *Engine) finishProducing(t *task) {
	for _, oe := range t.outList {
		oe.ring.Close()
	}
}

func (e *Engine) closeAllQueues() {
	for _, t := range e.tasks {
		if t.in != nil {
			t.in.Close()
		}
	}
}

// Snapshot returns the cumulative processed-tuple count per operator at
// this instant. It is safe to call while the engine runs; the adaptive
// re-optimization advisor polls it to derive live rates.
func (e *Engine) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(e.byOp))
	for _, t := range e.tasks {
		out[t.op] += atomic.LoadUint64(&t.processed)
	}
	return out
}

// SinkCount returns the tuples received by sinks so far.
func (e *Engine) SinkCount() uint64 { return e.sink.Load() }

// ProfileSnapshot captures every task's live-profiling counters at this
// instant: processed/emitted tuple counts, the service time and input
// bytes of every batch an operator consumed, queue wait, and the live
// inbox depth. It is safe to call while the engine runs;
// profile.FromEngine differences two snapshots into the Set the
// optimizer consumes.
func (e *Engine) ProfileSnapshot() profile.EngineSnapshot {
	s := profile.EngineSnapshot{At: time.Now(), Tasks: make([]profile.TaskSnapshot, 0, len(e.tasks))}
	for _, t := range e.tasks {
		ts := profile.TaskSnapshot{
			Op:             t.op,
			Replica:        t.replica,
			Processed:      atomic.LoadUint64(&t.processed),
			Emitted:        atomic.LoadUint64(&t.emitted),
			ServiceNs:      atomic.LoadUint64(&t.serviceNs),
			InBytes:        atomic.LoadUint64(&t.inBytes),
			QueueWaitNs:    atomic.LoadUint64(&t.qwaitNs),
			QueueWaitBatch: atomic.LoadUint64(&t.qwaitRows),
		}
		if t.in != nil {
			ts.QueueDepth = t.in.Len()
		}
		s.Tasks = append(s.Tasks, ts)
	}
	return s
}

func (e *Engine) recordErr(err error) {
	e.errsMu.Lock()
	e.errs = append(e.errs, err)
	e.errsMu.Unlock()
}
