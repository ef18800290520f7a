package engine

// Tests for the worker driver: a step never blocks (output that does
// not fit waits in the edge's overflow), an idle engine parks its
// workers, the overflow path allocates nothing in steady state, and a
// kill while overflow is pending leaves the engine recoverable.

import (
	"runtime"
	"testing"
	"time"

	"briskstream/internal/checkpoint"
	"briskstream/internal/graph"
	"briskstream/internal/tuple"
)

// fanOp emits ten rows per input row, so a full input batch leaves as
// ten full output batches: more than a one-slot ring takes in one step.
type fanOp struct{ one OneRow }

func (o *fanOp) Process(c Collector, t *tuple.Tuple) error { return o.one.Process(o, c, t) }

func (o *fanOp) ProcessBatch(c Collector, b *tuple.Batch) error {
	for r := 0; r < b.Len(); r++ {
		for i := int64(0); i < 10; i++ {
			out := c.Out(tuple.DefaultStreamID)
			out.PutInt(b.Int(0, r)*10 + i)
			out.EndRowFrom(b, r)
		}
	}
	return nil
}

// sumSink adds up the integers it receives.
type sumSink struct{ rows, sum int64 }

func (s *sumSink) Process(_ Collector, t *tuple.Tuple) error {
	s.rows++
	s.sum += t.Int(0)
	return nil
}

// TestOneWorkerOverflowCompletes: with one worker, one-slot rings and an
// operator that emits ten batches per input batch, a blocking put would
// wait forever for a consumer only its own worker can step. The step
// parks the rest in overflow instead, and the output is exact.
func TestOneWorkerOverflowCompletes(t *testing.T) {
	noGoroutineLeak(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 2000
	snk := &sumSink{}
	topo := Topology{
		App:       pipelineGraph(t),
		Spouts:    map[string]func() Spout{"spout": boundedSpoutEOF(n)},
		Operators: map[string]func() Operator{"double": func() Operator { return &fanOp{} }, "sink": func() Operator { return snk }},
	}
	cfg := DefaultConfig()
	cfg.QueueCapacity = 1
	cfg.BatchSize = 8
	e, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if len(e.workers) != 1 {
		t.Fatalf("%d workers under GOMAXPROCS(1), want 1", len(e.workers))
	}
	// Rows 0..10n-1, each once.
	if want := int64(10 * n); snk.rows != want || snk.sum != want*(want-1)/2 {
		t.Fatalf("sink got %d rows summing to %d, want %d rows summing to %d", snk.rows, snk.sum, want, want*(want-1)/2)
	}
}

// TestIdleEngineParksEveryWorker: a spout that emits nothing leaves
// every worker parked most of the time, not spinning, while the spout
// is still polled.
func TestIdleEngineParksEveryWorker(t *testing.T) {
	noGoroutineLeak(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	polls := 0
	topo := Topology{
		App: pipelineGraph(t),
		Spouts: map[string]func() Spout{"spout": func() Spout {
			return SpoutFunc(func(Collector) error { polls++; return nil })
		}},
		Operators: map[string]func() Operator{"double": doubler, "sink": sinkOp},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if len(e.workers) != 2 {
		t.Fatalf("%d workers under GOMAXPROCS(2), want 2", len(e.workers))
	}
	for i, w := range e.workers {
		if w.parks == 0 {
			t.Errorf("worker %d never parked in a 100ms run with nothing to do", i)
		}
	}
	if polls < 10 {
		t.Errorf("idle spout polled %d times in 100ms, want at least one per %v", polls, spoutPoll*10)
	}
}

// TestOverflowStepAllocFree: a step whose second batch finds the ring
// full parks it in the edge's overflow, and the drain that moves it on
// later allocates nothing once the overflow FIFO has grown.
func TestOverflowStepAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LatencySampleEvery = 0
	cfg.QueueCapacity = 1
	c, drainSink := allocHarness(t, cfg, 1, graph.Shuffle, sinkOp)
	src := tuple.NewBatch(1)
	src.Append(tuple.New(int64(0)))
	producer := c.t
	step := func() {
		for i := 0; i < 2*cfg.BatchSize; i++ {
			out := c.Out(tuple.DefaultStreamID)
			out.PutInt(int64(i))
			out.EndRowFrom(src, 0)
		}
		c.settle()
		if c.fail != nil || producer.over != 1 {
			t.Fatalf("fail %v, overflow %d after two batches into a one-slot ring, want 1", c.fail, producer.over)
		}
		drainSink()
		if _, err := c.e.drain(producer); err != nil || producer.over != 0 {
			t.Fatalf("drain: %v, overflow %d left", err, producer.over)
		}
		drainSink()
	}
	for i := 0; i < 16; i++ {
		step() // warm up: batches, free rings and the overflow FIFO
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("a step through overflow allocates %.1f times, want 0", allocs)
	}
}

// TestKillWithOverflowRecovers: a Kill that lands while a task holds
// overflow still ends the run without leaking a goroutine, and Restore
// plus Run reproduce the failure-free output exactly.
func TestKillWithOverflowRecovers(t *testing.T) {
	noGoroutineLeak(t)
	co := checkpoint.NewCoordinator(nil)
	spout := &seqSpout{limit: 1 << 62}
	agg := newSumOp()
	g := graph.New("kill-overflow")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "fan", Selectivity: map[string]float64{"default": 10}})
	g.AddNode(&graph.Node{Name: "agg", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "fan", Stream: "default"})
	g.AddEdge(graph.Edge{From: "fan", To: "agg", Stream: "default"})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	topo := Topology{
		App:    g,
		Spouts: map[string]func() Spout{"spout": func() Spout { return spout }},
		Operators: map[string]func() Operator{
			"fan": func() Operator {
				return OperatorFunc(func(c Collector, in *tuple.Tuple) error {
					for range 10 {
						forwardTuple(c, in)
					}
					return nil
				})
			},
			"agg": func() Operator { return agg },
		},
	}
	cfg := DefaultConfig()
	cfg.QueueCapacity = 1
	cfg.Checkpoint = co
	cfg.CheckpointInterval = 2 * time.Millisecond
	e, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fan := e.byOp["fan"][0]

	done := make(chan *Result, 1)
	go func() {
		res, _ := e.Run(0)
		done <- res
	}()
	if !waitFor(10*time.Second, func() bool { return co.Completed() >= 2 && fan.st.blocked.Load() != nil }) {
		t.Fatal("no checkpoint completed with the fan task in overflow within the deadline")
	}
	e.Kill()
	if res := <-done; len(res.Errors) != 0 {
		t.Fatalf("killed run reported errors: %v", res.Errors)
	}

	if _, err := e.Restore(); err != nil {
		t.Fatal(err)
	}
	limit := spout.i + 5000
	spout.limit = limit
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("recovery run errors: %v", res.Errors)
	}
	if want := 10 * limit * (limit + 1) / 2; agg.sum != want {
		t.Fatalf("recovered sum = %d, want %d: replay diverged from the failure-free stream", agg.sum, want)
	}
	if agg.perOrigin[0] != 10*limit {
		t.Fatalf("recovered row count = %d, want %d: rows lost or duplicated across recovery", agg.perOrigin[0], 10*limit)
	}
}
