// Package briskstream is a shared-memory data stream processing system
// for multicore NUMA machines, reproducing "BriskStream: Scaling Data
// Stream Processing on Shared-Memory Multicore Architectures" (Zhang et
// al., SIGMOD 2019).
//
// The package offers three capabilities behind one topology API:
//
//   - Run: execute a streaming topology on the in-process engine
//     (operators as goroutines, pass-by-reference tuples, jumbo-tuple
//     batching, back-pressure).
//   - Optimize: derive a NUMA-aware execution plan — replication level
//     and socket placement per operator — with the RLAS optimizer
//     (rate-based performance model + branch-and-bound placement +
//     iterative bottleneck scaling).
//   - Simulate: predict the plan's steady-state behaviour on a described
//     machine (e.g. the paper's eight-socket servers) without running it.
//
// A minimal word-count:
//
//	t := briskstream.NewTopology("wc")
//	t.Spout("source", mkSource)
//	t.Operator("split", mkSplit).Subscribe("source", briskstream.Shuffle)
//	t.Operator("count", mkCount).Subscribe("split", briskstream.FieldsKey(0))
//	t.Sink("sink", mkSink).Subscribe("count", briskstream.Shuffle)
//	res, err := t.Run(briskstream.RunConfig{Duration: time.Second})
//
// # Module layout
//
// The repository is the single Go module "briskstream". The public API
// lives in this root package; cmd/ holds the CLI tools (briskbench,
// rlas, topo, profile), examples/ the runnable applications, and
// internal/ the implementation: engine (the shared-memory runtime),
// queue (lock-free SPSC rings + fan-in inboxes between tasks), tuple,
// graph, plan, model, bnb, rlas and placement (the optimizer stack),
// sim and baseline (the calibrated simulator), plus metrics, numa,
// apps, experiments and friends.
//
// # Building and testing
//
// Everything runs off the standard toolchain (or the equivalent
// Makefile targets: build, test, race, bench, vet):
//
//	go build ./...                                   # compile everything
//	go test ./...                                    # full test suite
//	go test -race ./internal/queue/ ./internal/engine/
//	go test -bench 'PutGet|EngineEmit' -run xxx \
//	    ./internal/queue/ ./internal/engine/         # queue/emit microbenchmarks
//	go test -bench . -benchtime 1x .                 # paper artifacts as benchmarks
//	go run ./cmd/briskbench -engine 3s               # engine hot-path report
package briskstream

import (
	"cmp"
	"fmt"
	"time"

	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
	"briskstream/internal/graph"
	"briskstream/internal/tuple"
	"briskstream/internal/window"
)

// Value is a dynamically typed tuple field for the convenience Emit
// surface; the allocation-free path writes typed slots (AppendInt,
// AppendStr, ...) and never boxes.
type Value = tuple.Value

// Tuple is one data item flowing on a stream, carrying schema-typed
// slots (int64/float64/bool plus arena-backed strings and interned
// symbols). A tuple handed to Process is valid until Process returns —
// the engine refills it with the next input row — and an operator that
// keeps one longer must Clone it. Numeric values read out of a tuple
// may be kept forever; strings read with Str from ordinary string
// fields are arena views valid only while the tuple is held (symbol
// fields return stable interned names). See the internal/tuple package
// doc for the full ownership contract.
type Tuple = tuple.Tuple

// Batch is a columnar run of rows sharing one stream and layout, the
// unit every edge carries. A window spec's Add reads row r of one in
// place (Int, Float, Sym, Str, ...); a tuple fed one at a time arrives
// as a one-row batch. A batch is valid only during the call that
// receives it: numbers and symbols read from it may be kept, strings
// read from string columns are arena views that must be cloned.
type Batch = tuple.Batch

// Tuple schemas. Streams declare their typed layout at wiring time via
// Decl.Emits; the engine validates the first batch of each declared
// route, so a mis-typed emit fails at its source.

// Schema declares the typed field layout of one output stream.
type Schema = tuple.Schema

// Field is one schema field (name + kind).
type Field = tuple.Field

// FieldKind identifies a slot type.
type FieldKind = tuple.Kind

// Slot kinds.
const (
	KindInt   = tuple.KindInt
	KindFloat = tuple.KindFloat
	KindBool  = tuple.KindBool
	KindStr   = tuple.KindStr
	KindSym   = tuple.KindSym
)

// NewSchema builds a stream schema from fields (see the field
// constructors IntField, FloatField, BoolField, StrField, SymField).
func NewSchema(fields ...Field) *Schema { return tuple.NewSchema(fields...) }

// Field constructors for schema declarations.
func IntField(name string) Field   { return tuple.IntField(name) }
func FloatField(name string) Field { return tuple.FloatField(name) }
func BoolField(name string) Field  { return tuple.BoolField(name) }
func StrField(name string) Field   { return tuple.StrField(name) }
func SymField(name string) Field   { return tuple.SymField(name) }

// Sym is an interned symbol id: the representation for low-cardinality
// hot strings (words, device ids). Symbol fields compare as integers,
// and their Str/Name text is stable for the process lifetime.
type Sym = tuple.Sym

// InternSym interns a symbol name (process-global, never evicted — use
// only for bounded sets, never unbounded per-tuple data).
func InternSym(name string) Sym { return tuple.InternSym(name) }

// Key is a typed grouping key extracted from a tuple field
// (Tuple.Key); window operators receive it in their Emit callbacks and
// re-emit it with Tuple.AppendKey.
type Key = tuple.Key

// StreamID is an interned stream identifier; resolve names once with
// Stream and assign the id to Tuple.Stream for allocation-free emission
// on named streams via Collector.Borrow/Send.
type StreamID = tuple.StreamID

// DefaultStreamID is the interned id of DefaultStream (the zero value,
// which Borrow-ed tuples carry by default).
const DefaultStreamID = tuple.DefaultStreamID

// Stream interns a stream name, returning its StreamID. Call it at
// operator construction (wiring) time, not per tuple.
func Stream(name string) StreamID { return tuple.Intern(name) }

// Collector receives emitted tuples during an operator invocation:
// Borrow a scratch row, fill it with the typed appends (and optionally
// Stream), Send it — the engine copies it out and takes the row back.
type Collector = engine.Collector

// Operator processes one input tuple per invocation.
type Operator = engine.Operator

// OperatorFunc adapts a function to Operator.
type OperatorFunc = engine.OperatorFunc

// Spout produces input tuples; return io.EOF from Next to end the stream.
type Spout = engine.Spout

// SpoutFunc adapts a function to Spout.
type SpoutFunc = engine.SpoutFunc

// RouteError reports a tuple that could not be routed by a
// fields-grouping key (the tuple is narrower than the declared key
// field); it surfaces in RunResult.Errors, match with errors.As.
type RouteError = engine.RouteError

// Event time and timers. Tuples carry an event timestamp (Tuple.Event,
// int64 event-time units — milliseconds by convention); sources stamp
// it and punctuate progress with Collector.EmitWatermark. The engine
// broadcasts watermarks to every consumer replica, min-merges them at
// fan-in, and fires event-time timers on each task's execution
// goroutine. Operators opt in by implementing TimerAware (to receive
// the per-task Timers service) plus TimerHandler and/or
// WatermarkHandler. The internal/window package builds tumbling,
// sliding and session windows on these hooks.

// Timers is the per-task timer service (a min-heap of timestamps per
// time domain: event time and processing time).
type Timers = engine.Timers

// TimerKind distinguishes event-time from processing-time timers.
type TimerKind = engine.TimerKind

// EventTimer and ProcTimer are the TimerKind values.
const (
	EventTimer = engine.EventTimer
	ProcTimer  = engine.ProcTimer
)

// TimerAware operators receive their task's Timers before the run.
type TimerAware = engine.TimerAware

// TimerHandler operators receive OnTimer callbacks on their task's
// goroutine.
type TimerHandler = engine.TimerHandler

// WatermarkHandler operators observe every watermark advance.
type WatermarkHandler = engine.WatermarkHandler

// Watermark sentinels: WatermarkMax flushes all event time (broadcast
// automatically when a finite spout EOFs); WatermarkIdle excludes a
// source from downstream fan-in merges while it has no data.
const (
	WatermarkMax  = engine.WatermarkMax
	WatermarkIdle = engine.WatermarkIdle
)

// WindowSpan is one window's half-open event-time interval.
type WindowSpan = window.Span

// WindowOp configures a keyed tumbling/sliding window aggregation; see
// the internal/window package doc for semantics. Its one accumulate
// hook, Add, folds row r of a Batch into the accumulator:
//
//	Add: func(a *acc, b *briskstream.Batch, r int) { a.sum += b.Float(1, r) },
type WindowOp[A any] = window.Op[A]

// SessionWindowOp configures keyed session windows.
type SessionWindowOp[A any] = window.SessionOp[A]

// NewWindow builds a tumbling/sliding window operator (library-boundary
// surface for internal/window.New).
func NewWindow[A any](cfg WindowOp[A]) Operator { return window.New(cfg) }

// NewSessionWindow builds a session window operator.
func NewSessionWindow[A any](cfg SessionWindowOp[A]) Operator { return window.NewSession(cfg) }

// Fault tolerance. With a checkpoint coordinator configured, the engine
// takes aligned-barrier checkpoints (Chandy–Lamport style): sources
// record replay offsets, every operator snapshot is taken at a
// consistent cut, and a checkpoint completes only when every task has
// acknowledged. Recovery restores the latest completed checkpoint and
// replays the sources from their recorded offsets. Operators with state
// opt in by implementing Snapshotter (the window operators do, given
// Save/Load codecs); sources opt in by implementing ReplayableSpout.

// Snapshotter is implemented by operators (and spouts with state beyond
// their offset) whose state must survive failure.
type Snapshotter = checkpoint.Snapshotter

// SnapshotEncoder and SnapshotDecoder are the deterministic binary
// (de)serialization surface snapshot payloads use.
type (
	SnapshotEncoder = checkpoint.Encoder
	SnapshotDecoder = checkpoint.Decoder
)

// ReplayableSpout is a source that can report and rewind to a stream
// offset, enabling post-checkpoint replay.
type ReplayableSpout = engine.ReplayableSpout

// Checkpoint is one completed global snapshot.
type Checkpoint = checkpoint.Checkpoint

// CheckpointStore persists completed checkpoints.
type CheckpointStore = checkpoint.Store

// CheckpointCoordinator tracks in-flight checkpoints and persists
// completed ones. One coordinator spans the failure-free run and the
// recovery run — it is where the recovered engine finds the snapshot.
type CheckpointCoordinator = checkpoint.Coordinator

// NewCheckpointCoordinator builds a coordinator over store (nil means
// in-memory).
func NewCheckpointCoordinator(store CheckpointStore) *CheckpointCoordinator {
	return checkpoint.NewCoordinator(store)
}

// NewMemoryCheckpointStore keeps checkpoints in process memory
// (recovery from soft failures within one process lifetime).
func NewMemoryCheckpointStore() CheckpointStore { return checkpoint.NewMemoryStore() }

// NewFileCheckpointStore persists each checkpoint as one file under
// dir, surviving process death.
func NewFileCheckpointStore(dir string) (CheckpointStore, error) { return checkpoint.NewFileStore(dir) }

// SaveMapOrdered encodes a plain Go map deterministically (sorted keys,
// length prefix) — the byte-stable encoding Snapshotter implementations
// with hand-rolled map state should use instead of re-deriving it.
func SaveMapOrdered[K cmp.Ordered, V any](enc *SnapshotEncoder, m map[K]V, key func(*SnapshotEncoder, K), val func(*SnapshotEncoder, V)) {
	checkpoint.SaveMapOrdered(enc, m, key, val)
}

// LoadMapOrdered decodes a SaveMapOrdered encoding into m, replacing
// its contents.
func LoadMapOrdered[K cmp.Ordered, V any](dec *SnapshotDecoder, m map[K]V, key func(*SnapshotDecoder) K, val func(*SnapshotDecoder) V) error {
	return checkpoint.LoadMapOrdered(dec, m, key, val)
}

// DefaultStream is the stream name used by single-output operators.
const DefaultStream = tuple.DefaultStream

// Grouping selects how tuples are routed to a consumer's replicas.
type Grouping struct {
	part     graph.Partitioning
	keyField int
	stream   string
}

// Shuffle distributes tuples round-robin across replicas.
var Shuffle = Grouping{part: graph.Shuffle}

// Broadcast copies every tuple to all replicas.
var Broadcast = Grouping{part: graph.Broadcast}

// Global routes all tuples to a single replica.
var Global = Grouping{part: graph.Global}

// FieldsKey routes by hash of the given tuple field, pinning each key to
// one replica.
func FieldsKey(field int) Grouping { return Grouping{part: graph.Fields, keyField: field} }

// On narrows a grouping to a named output stream of the producer
// (default: DefaultStream).
func (g Grouping) On(stream string) Grouping {
	g.stream = stream
	return g
}

// Topology is a streaming application under construction.
type Topology struct {
	name      string
	g         *graph.Graph
	spouts    map[string]func() Spout
	operators map[string]func() Operator
	repl      map[string]int
	schemas   map[string]map[string]*Schema
	errs      []error
}

// NewTopology starts an empty topology.
func NewTopology(name string) *Topology {
	return &Topology{
		name:      name,
		g:         graph.New(name),
		spouts:    map[string]func() Spout{},
		operators: map[string]func() Operator{},
		repl:      map[string]int{},
		schemas:   map[string]map[string]*Schema{},
	}
}

// Decl continues the declaration of one operator (for Subscribe and
// metadata calls).
type Decl struct {
	t    *Topology
	name string
}

// Spout declares a source operator. The builder is invoked once per
// replica so each replica owns its state.
func (t *Topology) Spout(name string, mk func() Spout) *Decl {
	if err := t.g.AddNode(&graph.Node{Name: name, IsSpout: true, Selectivity: map[string]float64{}}); err != nil {
		t.errs = append(t.errs, err)
	}
	t.spouts[name] = mk
	t.repl[name] = 1
	return &Decl{t: t, name: name}
}

// Operator declares a processing operator.
func (t *Topology) Operator(name string, mk func() Operator) *Decl {
	if err := t.g.AddNode(&graph.Node{Name: name, Selectivity: map[string]float64{}}); err != nil {
		t.errs = append(t.errs, err)
	}
	t.operators[name] = mk
	t.repl[name] = 1
	return &Decl{t: t, name: name}
}

// Sink declares a terminal operator: its received tuples count toward
// the application throughput.
func (t *Topology) Sink(name string, mk func() Operator) *Decl {
	if err := t.g.AddNode(&graph.Node{Name: name, IsSink: true, Selectivity: map[string]float64{}}); err != nil {
		t.errs = append(t.errs, err)
	}
	t.operators[name] = mk
	t.repl[name] = 1
	return &Decl{t: t, name: name}
}

// Subscribe connects this operator to a producer's output stream.
func (d *Decl) Subscribe(producer string, g Grouping) *Decl {
	stream := g.stream
	if stream == "" {
		stream = DefaultStream
	}
	// Selectivity defaults to 1 on any stream an edge uses; Selectivity
	// or profiling can override it later.
	if n := d.t.g.Node(producer); n != nil {
		if _, ok := n.Selectivity[stream]; !ok {
			n.Selectivity[stream] = 1
		}
	}
	err := d.t.g.AddEdge(graph.Edge{
		From: producer, To: d.name, Stream: stream,
		Partitioning: g.part, KeyField: g.keyField,
	})
	if err != nil {
		d.t.errs = append(d.t.errs, err)
	}
	return d
}

// Emits declares the schema of this operator's output on the given
// stream (DefaultStream for single-output operators): field names and
// kinds, fixed at wiring time. The engine validates the first batch
// emitted on each declared route against it.
func (d *Decl) Emits(stream string, fields ...Field) *Decl {
	if stream == "" {
		stream = DefaultStream
	}
	if d.t.schemas[d.name] == nil {
		d.t.schemas[d.name] = map[string]*Schema{}
	}
	d.t.schemas[d.name][stream] = NewSchema(fields...)
	return d
}

// Parallelism sets the replica count used by Run when no optimized plan
// is supplied (Optimize chooses its own replication).
func (d *Decl) Parallelism(n int) *Decl {
	if n < 1 {
		d.t.errs = append(d.t.errs, fmt.Errorf("briskstream: parallelism %d for %q", n, d.name))
		return d
	}
	d.t.repl[d.name] = n
	return d
}

// Selectivity declares the average output tuples emitted on stream per
// input tuple, used by the optimizer's performance model.
func (d *Decl) Selectivity(stream string, s float64) *Decl {
	if n := d.t.g.Node(d.name); n != nil {
		n.Selectivity[stream] = s
	}
	return d
}

// Validate checks the topology structure.
func (t *Topology) Validate() error {
	if len(t.errs) > 0 {
		return t.errs[0]
	}
	return t.g.Validate()
}

// RunConfig tunes a real-engine execution.
type RunConfig struct {
	// Duration bounds the run; 0 runs until every spout returns io.EOF.
	Duration time.Duration
	// BatchSize overrides the jumbo-tuple size (default 64).
	BatchSize int
	// QueueCapacity overrides the per-task queue length (default 64).
	QueueCapacity int
	// Replication overrides the per-operator replica counts (e.g. from
	// an optimized Plan).
	Replication map[string]int
	// Linger overrides the partial-batch flush timeout (low-rate
	// streams see at most this much batching delay). Negative disables
	// the flush; 0 keeps the engine default.
	Linger time.Duration
	// CheckpointInterval enables periodic aligned checkpoints. The
	// Checkpoint coordinator is required with it — recovery needs a
	// handle the caller keeps across runs.
	CheckpointInterval time.Duration
	// Checkpoint supplies the coordinator that tracks and persists this
	// run's checkpoints. Share one coordinator between the original run
	// and a Resume run to recover across Run calls.
	Checkpoint *CheckpointCoordinator
	// Resume restores every task from the coordinator's latest
	// completed checkpoint — and replays sources from their recorded
	// offsets — before processing begins. Requires Checkpoint.
	Resume bool
	// AlignTimeout bounds how long a barrier alignment may park input
	// from already-aligned edges while slower edges catch up: past it,
	// the task abandons that checkpoint attempt and replays the parked
	// batches, so pathological skew cannot park unbounded memory. Zero
	// disables the bound. Abandoning never drops data — only the
	// checkpoint attempt.
	AlignTimeout time.Duration
	// Adaptive enables the autoscaler: the run is planned by RLAS,
	// profiled live, and elastically rescaled online when the advisor
	// predicts a sufficiently better plan (see AdaptiveConfig).
	// Replication is then chosen by the optimizer, not this config.
	Adaptive *AdaptiveConfig
	// Obs enables live telemetry: rolling-window metrics over the
	// engine's counters and, with Obs.Addr set, an HTTP server exposing
	// /metrics (Prometheus text), /statusz, /events, /healthz and
	// /debug/pprof/.
	Obs *ObsConfig
	// OnEvent observes every lifecycle journal event (run start/stop,
	// checkpoints, rescales) synchronously as it is emitted. Setting it
	// without Obs still activates the journal.
	OnEvent func(ObsEvent)
}

// RunResult reports a real-engine execution.
type RunResult struct {
	// Duration is the measured wall time.
	Duration time.Duration
	// SinkTuples counts tuples received by sinks.
	SinkTuples uint64
	// Throughput is SinkTuples/Duration (tuples/sec).
	Throughput float64
	// LatencyP50, LatencyP99 are sampled end-to-end latencies (ms),
	// read from the engine's log-bucketed histogram: each is its bucket's
	// upper bound (an overestimate of at most +25 %), the same number
	// /metrics publishes for brisk_latency_ns.
	LatencyP50, LatencyP99 float64
	// Processed counts processed tuples per operator.
	Processed map[string]uint64
	// AlignTimeouts counts checkpoint alignment attempts abandoned by
	// RunConfig.AlignTimeout (dropped checkpoint attempts, never data).
	AlignTimeouts uint64
	// Rescales counts online rollovers performed by the autoscaler
	// (always 0 without RunConfig.Adaptive).
	Rescales int
	// RescaleOutcomes audits each rescale the autoscaler performed:
	// the gain the model predicted against the gain actually measured
	// once the rescaled engine settled (empty without Adaptive).
	RescaleOutcomes []RescaleOutcome
	// Errors aggregates operator failures.
	Errors []error
}

// RescaleOutcome compares one online rescale's predicted relative
// throughput gain with the gain measured after the rollover.
type RescaleOutcome struct {
	// At is when the realized gain was measured.
	At time.Time
	// PredictedGain is the model's promised relative improvement
	// (NewPredicted/CurrentPredicted − 1) at decision time.
	PredictedGain float64
	// RealizedGain is the measured relative throughput change across
	// the rollover; negative means the rescale hurt.
	RealizedGain float64
}

// Run executes the topology on the in-process engine.
func (t *Topology) Run(cfg RunConfig) (*RunResult, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if cfg.Adaptive != nil {
		return t.runAdaptive(cfg)
	}
	ecfg := engine.DefaultConfig()
	if cfg.BatchSize > 0 {
		ecfg.BatchSize = cfg.BatchSize
	}
	if cfg.QueueCapacity > 0 {
		ecfg.QueueCapacity = cfg.QueueCapacity
	}
	if cfg.Linger != 0 {
		ecfg.Linger = max(cfg.Linger, 0)
	}
	if cfg.Resume && cfg.Checkpoint == nil {
		return nil, fmt.Errorf("briskstream: Resume requires a Checkpoint coordinator")
	}
	if cfg.CheckpointInterval > 0 && cfg.Checkpoint == nil {
		// A hidden throwaway coordinator would make every checkpoint pure
		// overhead: the caller could never Restore from it.
		return nil, fmt.Errorf("briskstream: CheckpointInterval requires a Checkpoint coordinator (keep it to Resume after a failure)")
	}
	ecfg.Checkpoint = cfg.Checkpoint
	ecfg.CheckpointInterval = cfg.CheckpointInterval
	ecfg.AlignTimeout = cfg.AlignTimeout
	applyObsEngineConfig(&ecfg, cfg)
	repl := t.repl
	if cfg.Replication != nil {
		repl = cfg.Replication
	}
	e, err := engine.New(engine.Topology{
		App:         t.g,
		Spouts:      t.spouts,
		Operators:   t.operators,
		Replication: repl,
		Schemas:     t.schemas,
	}, ecfg)
	if err != nil {
		return nil, err
	}
	sess, err := startObs(cfg)
	if err != nil {
		return nil, err
	}
	defer sess.close()
	sess.bindEngine(e)
	if cfg.Resume {
		if _, err := e.Restore(); err != nil {
			return nil, err
		}
	}
	res, err := e.Run(cfg.Duration)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Duration:      res.Duration,
		SinkTuples:    res.SinkTuples,
		Throughput:    res.Throughput,
		LatencyP50:    res.Latency.Quantile(0.5) / 1e6,
		LatencyP99:    res.Latency.Quantile(0.99) / 1e6,
		Processed:     res.Processed,
		AlignTimeouts: res.AlignTimeouts,
		Errors:        res.Errors,
	}, nil
}

// Graph exposes the underlying logical DAG (read-only use).
func (t *Topology) Graph() *graph.Graph { return t.g }

// Builders exposes the operator constructors for engine-level embedding.
func (t *Topology) Builders() (map[string]func() Spout, map[string]func() Operator) {
	return t.spouts, t.operators
}
