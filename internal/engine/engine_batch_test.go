package engine

// Columnar-path guards: edges to batch-aware consumers must actually be
// wired columnar (the vectorized path is what the engine does, not an
// opt-in easter egg), batch gating must honor
// WantsBatches, and the emit→dispatch→consume loop over columnar
// batches must be allocation-free in steady state — the batch arena,
// the column lanes, the jumbo header and the batch object itself all
// recycle.

import (
	"io"
	"testing"

	"briskstream/internal/graph"
	"briskstream/internal/tuple"
)

// batchSink is a batch-aware discarding sink.
type batchSink struct{}

func (batchSink) Process(Collector, *tuple.Tuple) error      { return nil }
func (batchSink) ProcessBatch(Collector, *tuple.Batch) error { return nil }

// gatedSink is batch-capable but asks for scalar input.
type gatedSink struct{ batchSink }

func (gatedSink) WantsBatches() bool { return false }

// buildBatchEngine wires spout -> sink with the given sink builder.
func buildBatchEngine(t *testing.T, cfg Config, mk func() Operator) *Engine {
	t.Helper()
	g := graph.New("batch")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "sink", Stream: "default"})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := New(Topology{
		App: g,
		Spouts: map[string]func() Spout{"spout": func() Spout {
			return SpoutFunc(func(c Collector) error { return io.EOF })
		}},
		Operators: map[string]func() Operator{"sink": mk},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestColumnarEdgeWiring(t *testing.T) {
	edgeOf := func(e *Engine) *outEdge { return e.byOp["spout"][0].outList[0] }

	// An edge is columnar iff its consumer is batch-aware: the engine
	// observes the operator's type, nothing in Config selects the path.
	cfg := DefaultConfig()
	if oe := edgeOf(buildBatchEngine(t, cfg, func() Operator { return batchSink{} })); !oe.columnar || oe.colFree == nil {
		t.Error("edge to a BatchOperator consumer is not columnar")
	}
	// Scalar consumer: pointer-passing edge.
	if oe := edgeOf(buildBatchEngine(t, cfg, sinkOp)); oe.columnar {
		t.Error("edge to a scalar consumer wired columnar")
	}
	// WantsBatches()==false opts a batch-capable consumer out.
	if oe := edgeOf(buildBatchEngine(t, cfg, func() Operator { return gatedSink{} })); oe.columnar {
		t.Error("edge to a WantsBatches()==false consumer wired columnar")
	}
}

// columnarHarness builds a spout->sink edge with batch-aware sink
// replicas and returns the producer's collector plus a drain that
// consumes queued batch jumbos the way runTask does — through
// consumeBatch, so drained batches recycle onto the edge's reverse free
// ring and the producer's getBatch never allocates in steady state.
func columnarHarness(t *testing.T, cfg Config, consumers int, part graph.Partitioning) (*collector, func()) {
	t.Helper()
	g := graph.New("alloc")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "sink", Stream: "default", Partitioning: part, KeyField: 0})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := New(Topology{
		App: g,
		Spouts: map[string]func() Spout{"spout": func() Spout {
			return SpoutFunc(func(c Collector) error { return io.EOF })
		}},
		Operators:   map[string]func() Operator{"sink": func() Operator { return batchSink{} }},
		Replication: map[string]int{"sink": consumers},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	producer := e.byOp["spout"][0]
	sinks := e.byOp["sink"]
	cols := make([]*collector, len(sinks))
	for i, ct := range sinks {
		cols[i] = &collector{e: e, t: ct}
	}
	for _, oe := range producer.outList {
		if !oe.columnar {
			t.Fatal("harness edge is not columnar")
		}
	}
	drain := func() {
		for i, ct := range sinks {
			for {
				j, ok, _ := ct.in.TryGet()
				if !ok {
					break
				}
				if err := e.consumeJumbo(ct, cols[i], j); err != nil {
					panic(err)
				}
			}
		}
	}
	return &collector{e: e, t: producer}, drain
}

func TestEmitDispatchAllocFreeColumnar(t *testing.T) {
	for _, part := range []graph.Partitioning{graph.Shuffle, graph.Fields} {
		cfg := DefaultConfig()
		cfg.LatencySampleEvery = 0 // time.Now stamping is not the measured path
		c, drain := columnarHarness(t, cfg, 4, part)
		emit := func() {
			out := c.Borrow()
			out.AppendStr("the quick brown fox")
			out.AppendInt(100042)
			c.Send(out)
			drain()
		}
		for i := 0; i < 2000; i++ {
			emit() // warm pools, batch arenas and the reverse free rings
		}
		avg := testing.AllocsPerRun(5000, emit)
		if avg > 0 {
			t.Errorf("%v: columnar emit->dispatch->consume allocates %.4f/op, want 0", part, avg)
		}
	}
}
