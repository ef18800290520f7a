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
//     materialized into a pooled tuple, released when Process returns.
//     Operators that keep it beyond Process (windows, joins, side
//     goroutines) must Retain it in Process and Release it later;
//     values read out of a tuple are immutable and never need
//     retaining.
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
	// Send emits a tuple, consuming the caller's ownership of it (a
	// borrowed row is recycled, any other tuple loses one reference).
	// The engine stamps the event timestamp; callers only fill Values
	// and Stream.
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
// that also implements ProcessBatch consumes each received batch (see
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
// Process remains required: it serves the rows the engine must deliver
// individually (traced batches, through the row adapter).
type BatchOperator interface {
	Operator
	ProcessBatch(c Collector, b *tuple.Batch) error
}

// BatchGater lets a BatchOperator decline vectorized delivery: while
// WantsBatches reports false the engine feeds it through the row
// adapter like a scalar operator — the right call when ProcessBatch
// would only loop over Process anyway, e.g. a window without vectorized
// AddRow/Merge hooks. Operators without this method get ProcessBatch
// whenever they implement BatchOperator.
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

// Config tunes the runtime.
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

	// ProfileSampleEvery times every k-th operator invocation (service
	// time and input tuple size) for live profiling; ProfileSnapshot
	// exposes the counters. Default 0 (off — the only data-path cost is
	// one predictable branch per tuple).
	ProfileSampleEvery int
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
	// TrackPools counts every task pool's tuple gets and puts
	// (Engine.PoolStats), the accounting the leak/double-free property
	// tests balance. Off the hot path when false (the default).
	TrackPools bool
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

	// pool recycles the tuples the row adapter materializes this task's
	// input rows into (see consumeBatch).
	pool *tuple.Pool

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
	// if it is not one), resolved once at New.
	tm      *Timers
	onTimer TimerHandler
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

	// Live counters, all atomically updated and read by Result,
	// ProfileSnapshot and the obs layer while the task runs. processed
	// and emitted are published from the collector's exact counts once
	// per consumed jumbo, so mid-run they may trail the truth by one
	// batch, never lead it. serviceNs/serviceSamples/inBytes accumulate
	// the sampled operator invocations (every Config.ProfileSampleEvery
	// input tuples).
	processed      uint64
	emitted        uint64
	serviceNs      uint64
	serviceSamples uint64
	inBytes        uint64
	// Queue-wait attribution (atomically updated like the profiling
	// counters): cumulative nanoseconds the task's input batches spent
	// in its communication queue, and how many batches that covers. One
	// clock read per jumbo — every tuple's queueing is attributed
	// without any per-tuple cost.
	qwaitNs      uint64
	qwaitBatches uint64
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
				pool:    tuple.NewPool(),
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
			if cfg.TrackPools {
				t.pool.EnableStats()
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

// batchOperator returns op's vectorized form, or nil when its input
// must go through the row adapter: a scalar operator, or a
// BatchOperator whose BatchGater declines.
func batchOperator(op Operator) BatchOperator {
	bop, ok := op.(BatchOperator)
	if !ok {
		return nil
	}
	if g, ok := op.(BatchGater); ok && !g.WantsBatches() {
		return nil
	}
	return bop
}

// ErrStopped is returned by collectors after the engine begins shutdown.
var ErrStopped = errors.New("engine: stopped")

// collector implements Collector for one task.
type collector struct {
	e *Engine
	t *task
	// rows is the stack of scratch rows Borrow hands out.
	rows tuple.Scratch
	// processed and emitted are the task's exact counts this run;
	// publish copies them to the task's atomics.
	processed, emitted uint64
	seq                uint64    // spout output counter driving latency sampling
	pseq               uint64    // input-tuple counter driving profile sampling
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
// exit, which keeps two LOCK XADDs per row off the hot path and the
// published counts exact whenever a run has ended.
func (c *collector) publish() {
	atomic.StoreUint64(&c.t.processed, c.processed)
	atomic.StoreUint64(&c.t.emitted, c.emitted)
}

// Borrow implements Collector.
func (c *collector) Borrow() *tuple.Tuple { return c.rows.Get() }

// Send implements Collector: it stamps the row's metadata, copies it to
// every destination, and only then recycles it — once, however many
// edges it fanned out to.
func (c *collector) Send(out *tuple.Tuple) {
	if c.fail == nil {
		c.stamp(out)
		c.emitted++
		c.fail = c.e.dispatch(c.t, out)
	}
	c.rows.Put(out)
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

// fireProcTimers advances the task's processing-time wheel to now:
// linger timers flush their edge's partial buffer (if it is still the
// one they were armed for), operator/spout timers get OnTimer.
func (e *Engine) fireProcTimers(t *task, c *collector) error {
	err := t.tm.fireProcDue(time.Now(), func(en wheelEntry) error {
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
		atomic.StoreUint64(&t.serviceSamples, 0)
		atomic.StoreUint64(&t.inBytes, 0)
		atomic.StoreUint64(&t.qwaitNs, 0)
		atomic.StoreUint64(&t.qwaitBatches, 0)
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

// PoolStats sums the tuple-pool get/put accounting across all task
// pools. It only reports non-zero values when Config.TrackPools was
// set. With no run in flight and every retained tuple released,
// gets == puts; any difference is a leaked (or double-freed) tuple.
func (e *Engine) PoolStats() (gets, puts uint64) {
	for _, t := range e.tasks {
		g, p := t.pool.Stats()
		gets += g
		puts += p
	}
	return gets, puts
}

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
	defer func() {
		if r := recover(); r != nil {
			e.recordErr(fmt.Errorf("engine: operator %s panicked: %v", t.label, r))
			e.stop.Store(true)
			e.closeAllQueues()
		}
		e.flushAll(t)
		e.finishProducing(t)
		c.publish() // however the task ended, its final counts are exact
	}()

	if t.spout != nil {
		iter := 0
		for !e.stop.Load() {
			err := t.spout.Next(c)
			if c.fail != nil {
				e.failTask(c.fail)
				return
			}
			if err == io.EOF {
				// Finite stream: broadcast the final watermark so every
				// open window downstream fires before shutdown, and —
				// under checkpointing — the done marker, so consumers
				// stop expecting barriers from this source while other
				// sources keep running.
				c.EmitWatermark(WatermarkMax)
				if c.fail == nil && e.coord != nil {
					if err := e.broadcastPunct(t, tuple.PunctBarrier, barrierDone, time.Time{}); err != nil {
						c.fail = err
					}
				}
				if c.fail != nil && !errors.Is(c.fail, ErrStopped) {
					e.failTask(c.fail)
					return
				}
				e.finishTask(t)
				return
			}
			if err != nil {
				e.recordErr(fmt.Errorf("engine: spout %s: %w", t.label, err))
				return
			}
			// Checkpoint injection point: between Next calls the source
			// is at a well-defined offset, so this is where the barrier
			// (and the source's own snapshot) is taken.
			if e.coord != nil {
				if req := e.ckptReq.Load(); req > t.lastCkpt {
					if err := e.sourceBarrier(t, c, req); err != nil {
						e.failTask(err)
						return
					}
				}
			}
			// Spouts have no blocking input to piggyback on, so every few
			// iterations publish the counters and, while timers (the
			// linger flush, spout-registered proc timers) pend, poll the
			// clock.
			if iter++; iter&31 != 0 {
				continue
			}
			c.publish()
			if t.tm.procPending() && !time.Now().Before(t.tm.nextProc()) {
				if err := e.fireProcTimers(t, c); err != nil {
					e.failTask(err)
					return
				}
			}
		}
		return
	}

	for {
		var j tuple.Jumbo
		if t.tm.procPending() {
			// Wake at the earliest processing-time deadline even if no
			// input flows: that is what bounds the linger latency.
			jj, ok, err := t.in.GetUntil(t.tm.nextProc())
			if err != nil {
				e.drainAlignment(t, c) // closed and drained
				e.finishTask(t)
				return
			}
			if !ok {
				if err := e.fireProcTimers(t, c); err != nil {
					e.failTask(err)
					return
				}
				continue
			}
			j = jj
		} else {
			jj, err := t.in.Get()
			if err != nil {
				e.drainAlignment(t, c) // closed and drained
				e.finishTask(t)
				return
			}
			j = jj
		}
		if t.alignID != 0 && t.alignSeen[j.Producer] {
			// Barrier alignment in progress and this edge's barrier has
			// already arrived: everything it sends now belongs after the
			// snapshot, so park the batch until alignment completes.
			t.alignBuf = append(t.alignBuf, j)
			continue
		}
		if err := e.consumeJumbo(t, c, j); err != nil {
			e.failTask(err)
			return
		}
		if t.tm.procPending() && !time.Now().Before(t.tm.nextProc()) {
			if err := e.fireProcTimers(t, c); err != nil {
				e.failTask(err)
				return
			}
		}
	}
}

// consumeJumbo processes one received jumbo: the batch goes to the
// operator through consumeBatch, then the header's control record, if
// any, to the watermark fan-in merge or the checkpoint alignment
// protocol. It consumes the jumbo (the batch goes back to its producer)
// and publishes the task's counters — after the trailer, because a
// watermark that fires windows emits rows past the payload.
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
		qwait = time.Now().UnixNano() - j.EnqNs
		if qwait < 0 {
			qwait = 0
		}
		if n := uint64(j.Len()); n > 0 {
			atomic.AddUint64(&t.qwaitNs, uint64(qwait)*n)
			atomic.AddUint64(&t.qwaitBatches, n)
		}
		if t.qwaitWin != nil {
			t.qwaitWin.Observe(float64(qwait))
		}
	}
	var err error
	if j.Batch != nil {
		err = e.consumeBatch(t, c, j.Batch, qwait)
		// Park the drained batch on the reverse free ring of the edge it
		// arrived over — consumer puts, producer gets, the FreeRing's
		// SPSC discipline. A full ring drops it to the GC.
		j.Batch.Reset()
		e.tasks[j.Producer].out[t.id].free.TryPut(j.Batch)
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

// invokeOperator runs the operator on one materialized input tuple.
//
// Profile sampling: time every k-th invocation and record the input
// tuple's size, so a running engine yields the Te/N the performance
// model consumes without instrumenting every tuple. A traced input
// tuple gets its invocation timed too, and a span recorded after
// Process: this hop's queue wait, service time and output fan-out.
// Untraced tuples pay exactly one predictable branch here.
func (e *Engine) invokeOperator(t *task, c *collector, in *tuple.Tuple, qwait int64) error {
	var started time.Time
	sampled := false
	if e.cfg.ProfileSampleEvery > 0 {
		if c.pseq++; c.pseq%uint64(e.cfg.ProfileSampleEvery) == 0 {
			sampled = true
			atomic.AddUint64(&t.inBytes, uint64(in.Size()))
			started = time.Now()
		}
	}
	traced := in.TraceID != 0 && t.spans != nil
	emit0 := c.emitted
	if traced && started.IsZero() {
		started = time.Now()
	}
	if err := t.operator.Process(c, in); err != nil {
		return fmt.Errorf("engine: operator %s: %w", t.label, err)
	}
	if sampled || traced {
		dur := time.Since(started)
		if sampled {
			atomic.AddUint64(&t.serviceNs, uint64(dur))
			atomic.AddUint64(&t.serviceSamples, 1)
		}
		if t.svcWin != nil {
			t.svcWin.Observe(float64(dur))
		}
		if traced {
			t.spans.Append(obs.Span{
				TraceID:     in.TraceID,
				OriginNs:    in.TraceOrigin,
				AtNs:        started.UnixNano() + int64(dur),
				QueueWaitNs: qwait,
				ServiceNs:   int64(dur),
				Emitted:     c.emitted - emit0,
				Kind:        obs.SpanHop,
			})
		}
	}
	return c.fail
}

// consumeBatch processes the batch of a received jumbo. A willing
// BatchOperator (see batchOperator) gets the whole batch in one
// ProcessBatch call — the vectorized path — unless the batch carries
// traced rows and tracing is armed, in which case per-tuple span
// semantics must stay exact. Everything else goes through the row
// adapter: each row is materialized into a pooled tuple and handed to
// Process.
func (e *Engine) consumeBatch(t *task, c *collector, b *tuple.Batch, qwait int64) error {
	n := b.Len()
	if t.isSink {
		e.arrived(b)
	}
	bop := batchOperator(t.operator)
	if bop != nil && !(b.HasTrace() && t.spans != nil) {
		// Vectorized path. Profile sampling covers the whole batch when
		// the k-th-invocation counter crosses a period boundary inside
		// it; serviceSamples advances by the row count so the
		// ns-per-tuple averages stay comparable with the row adapter's.
		var started time.Time
		sampled := false
		if e.cfg.ProfileSampleEvery > 0 {
			k := uint64(e.cfg.ProfileSampleEvery)
			if (c.pseq+uint64(n))/k != c.pseq/k {
				sampled = true
				atomic.AddUint64(&t.inBytes, uint64(b.Size()))
				started = time.Now()
			}
			c.pseq += uint64(n)
		}
		// inBatch suspends the collector's ambient meta stamping: one
		// batch spans many source rows, so a single curTs/curEvent would
		// smear the first row's context over every output. Batch
		// operators stamp per row via Batch.StampMeta.
		c.inBatch = true
		err := bop.ProcessBatch(c, b)
		c.inBatch = false
		if err != nil {
			return fmt.Errorf("engine: operator %s: %w", t.label, err)
		}
		if sampled {
			dur := time.Since(started)
			atomic.AddUint64(&t.serviceNs, uint64(dur))
			atomic.AddUint64(&t.serviceSamples, uint64(n))
			if t.svcWin != nil {
				t.svcWin.Observe(float64(dur) / float64(max(n, 1)))
			}
		}
		if c.fail != nil {
			return c.fail
		}
		c.processed += uint64(n)
	} else {
		// Row adapter. The tuple comes from, and returns to, this task's
		// own pool on this goroutine; it is pooled and refcounted so the
		// operator may Retain it past Process.
		for r := 0; r < n; r++ {
			in := t.pool.Get()
			b.CopyRowTo(r, in)
			c.curTs, c.curEvent = in.Ts, in.Event
			c.curTrace, c.curOrigin = in.TraceID, in.TraceOrigin
			err := e.invokeOperator(t, c, in, qwait)
			in.ReleaseLocal()
			if err != nil {
				return err
			}
			c.processed++
		}
	}
	return nil
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
// instant: processed/emitted tuple counts, the sampled service-time and
// input-size accumulators (populated when Config.ProfileSampleEvery is
// set), and the live inbox depth. It is safe to call while the engine
// runs; profile.FromEngine differences two snapshots into the Set the
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
			ServiceSamples: atomic.LoadUint64(&t.serviceSamples),
			InBytes:        atomic.LoadUint64(&t.inBytes),
			QueueWaitNs:    atomic.LoadUint64(&t.qwaitNs),
			QueueWaitBatch: atomic.LoadUint64(&t.qwaitBatches),
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
