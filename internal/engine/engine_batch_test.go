package engine

// Batch-consumption guards: every edge carries columnar batches,
// whatever consumes them; BatchOperator and BatchGater only choose
// between one ProcessBatch call and the row adapter. The
// emit→dispatch→ProcessBatch loop must be allocation-free in steady
// state — the batch arena, the column lanes, the jumbo header and the
// batch object itself all recycle.

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

// deliveryLog counts how its input arrived.
type deliveryLog struct{ rows, batches int }

func (d *deliveryLog) Process(Collector, *tuple.Tuple) error { d.rows++; return nil }

// batchDeliveryLog is deliveryLog made batch-aware; gatedDeliveryLog is
// batch-capable but declines batches.
type batchDeliveryLog struct{ *deliveryLog }

func (d batchDeliveryLog) ProcessBatch(_ Collector, b *tuple.Batch) error {
	d.batches++
	return nil
}

type gatedDeliveryLog struct{ batchDeliveryLog }

func (gatedDeliveryLog) WantsBatches() bool { return false }

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

// TestColumnarEdgeWiring: the engine wires every edge the same way —
// a batch travels it and comes back over the edge's free ring — and
// observes the operator's type only to decide how the batch is
// consumed; nothing in Config selects a path.
func TestColumnarEdgeWiring(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(*deliveryLog) Operator
		want deliveryLog
	}{
		{"BatchOperator", func(d *deliveryLog) Operator { return batchDeliveryLog{d} }, deliveryLog{batches: 1}},
		{"scalar", func(d *deliveryLog) Operator { return d }, deliveryLog{rows: 3}},
		{"WantsBatches()==false", func(d *deliveryLog) Operator { return gatedDeliveryLog{batchDeliveryLog{d}} }, deliveryLog{rows: 3}},
	} {
		log := &deliveryLog{}
		e := buildBatchEngine(t, DefaultConfig(), func() Operator { return tc.mk(log) })
		producer, sink := e.byOp["spout"][0], e.byOp["sink"][0]
		oe := producer.outList[0]
		pc, sc := &collector{e: e, t: producer}, &collector{e: e, t: sink}
		for i := int64(0); i < 3; i++ {
			sendInt(pc, i)
		}
		e.flushAll(producer)
		j, ok, _ := sink.in.TryGet()
		if !ok || j.Batch == nil || j.Len() != 3 {
			t.Fatalf("%s consumer: want one 3-row batch jumbo, got ok=%v %+v", tc.name, ok, j)
		}
		if err := e.consumeJumbo(sink, sc, j); err != nil {
			t.Fatal(err)
		}
		if *log != tc.want {
			t.Errorf("%s consumer got %+v, want %+v", tc.name, *log, tc.want)
		}
		if oe.free.Len() != 1 {
			t.Errorf("%s consumer: %d batches on the edge's free ring after the drain, want 1", tc.name, oe.free.Len())
		}
	}
}

func TestEmitDispatchAllocFreeColumnar(t *testing.T) {
	for _, part := range []graph.Partitioning{graph.Shuffle, graph.Fields} {
		cfg := DefaultConfig()
		cfg.LatencySampleEvery = 0 // time.Now stamping is not the measured path
		c, drain := allocHarness(t, cfg, 4, part, func() Operator { return batchSink{} })
		emit := func() {
			out := c.Borrow()
			out.AppendStr("the quick brown fox")
			out.AppendInt(100042)
			c.Send(out)
			drain()
		}
		for i := 0; i < 2000; i++ {
			emit() // warm batch arenas and the reverse free rings
		}
		avg := testing.AllocsPerRun(5000, emit)
		if avg > 0 {
			t.Errorf("%v: emit->dispatch->ProcessBatch allocates %.4f/op, want 0", part, avg)
		}
	}
}
