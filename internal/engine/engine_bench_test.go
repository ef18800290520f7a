package engine

// engine_bench_test.go measures the emit hot path in isolation: the
// partition controller, per-consumer batch accumulation and the SPSC
// enqueue, without spout/operator work on top. Run with:
//
//	go test -bench EngineEmit -run xxx ./internal/engine/

import (
	"io"
	"runtime"
	"sync"
	"testing"

	"briskstream/internal/graph"
	"briskstream/internal/tuple"
)

// benchEmit emits b.N one-integer rows from an operator task into
// `consumers` no-op batch sink replicas, each stepped by the engine's
// own visit on a goroutine of its own. emit "send" fills borrowed rows and Sends them; "out"
// puts them through Out. Either way the task settles every 64 rows, as
// the engine does after each ProcessBatch call. emit "forward" feeds
// the task full 64-row input batches through consumeJumbo, and the
// operator forwards each whole (ForwardRows): over one edge the batch
// is handed over, over several replicas its rows are copied. The
// benchmark fails unless every row reaches a sink.
func benchEmit(b *testing.B, consumers int, part graph.Partitioning, emit string) {
	b.Helper()
	g := graph.New("emit")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "op", Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "op", Stream: "default"})
	g.AddEdge(graph.Edge{From: "op", To: "sink", Stream: "default", Partitioning: part, KeyField: 0})
	if err := g.Validate(); err != nil {
		b.Fatal(err)
	}
	topo := Topology{
		App: g,
		Spouts: map[string]func() Spout{"spout": func() Spout {
			return SpoutFunc(func(c Collector) error { return io.EOF })
		}},
		Operators:   map[string]func() Operator{"op": func() Operator { return &passBatch{} }, "sink": func() Operator { return batchSink{} }},
		Replication: map[string]int{"sink": consumers},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	producer := e.byOp["op"][0]
	var wg sync.WaitGroup
	for _, ct := range e.byOp["sink"] {
		wg.Add(1)
		ct.c = &collector{e: e, t: ct}
		go func(ct *task) {
			defer wg.Done()
			for !ct.st.done.Load() {
				if !e.visit(ct) {
					runtime.Gosched()
				}
			}
		}(ct)
	}
	// The measured loop is the emit path itself (fill typed
	// slots, route, land in the edge's batch, enqueue), which must not
	// allocate in steady state. src is the input row put rows copy their
	// metadata from.
	src := tuple.NewBatch(1)
	src.Append(tuple.New(int64(0)))
	c := &collector{e: e, t: producer}
	// forward's input batches arrive over the spout's edge and come back
	// on its free ring, the hand-over's replacements included.
	spout := e.byOp["spout"][0]
	in, row := spout.out[producer.id], tuple.New(int64(0))
	var fill *tuple.Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := int64(i & 1023)
		if emit == "forward" {
			if fill == nil {
				var ok bool
				if fill, ok = in.free.TryGet(); !ok {
					fill = tuple.NewBatch(e.cfg.BatchSize)
				}
			}
			row.Reset()
			row.AppendInt(key)
			if fill.Append(row); fill.Full() || i == b.N-1 {
				if err := e.consumeJumbo(producer, c, tuple.Jumbo{Producer: spout.id, Batch: fill}); err != nil {
					b.Fatal(err)
				}
				fill = nil
				drainOverflow(e, producer)
			}
			continue
		}
		if emit == "out" {
			out := c.Out(tuple.DefaultStreamID)
			out.PutInt(key)
			out.EndRowFrom(src, 0)
		} else {
			out := c.Borrow()
			out.AppendInt(key)
			c.Send(out)
		}
		if i&63 == 63 {
			c.settle()
			drainOverflow(e, producer)
		}
	}
	c.settle()
	if c.fail != nil {
		b.Fatal(c.fail)
	}
	e.flushAll(producer)
	drainOverflow(e, producer)
	e.finishProducing(producer)
	wg.Wait()
	if len(e.errs) != 0 {
		b.Fatal(e.errs)
	}
	if got := e.sink.Load(); got != uint64(b.N) {
		b.Fatalf("%d of %d rows reached the sinks", got, b.N)
	}
}

// drainOverflow moves a task's overflow onto its rings, yielding to the
// consumers until they made room: what a worker does before it steps
// the task again.
func drainOverflow(e *Engine, t *task) {
	for t.over > 0 {
		if moved, err := e.drain(t); err != nil {
			panic(err)
		} else if !moved {
			runtime.Gosched()
		}
	}
}

// BenchmarkEngineEmit compares the emit paths — Send (an adapter over
// Out), Out, and the whole-batch forward — over a single edge
// (shuffle-c1, fields-c1: Send and Out fill the edge's own batch, a
// forward hands its input over) and over four or eight replicas
// (shuffle-c4, shuffle-c8, fields-c4: Send and Out stage and
// ForwardRows routes once per batch, a forward copies every row).
func BenchmarkEngineEmit(b *testing.B) {
	for _, emit := range []string{"send", "out", "forward"} {
		for _, r := range []struct {
			name      string
			part      graph.Partitioning
			consumers int
		}{
			{"shuffle-c1", graph.Shuffle, 1}, {"shuffle-c4", graph.Shuffle, 4}, {"shuffle-c8", graph.Shuffle, 8},
			{"fields-c1", graph.Fields, 1}, {"fields-c4", graph.Fields, 4},
		} {
			b.Run(emit+"/"+r.name, func(b *testing.B) {
				benchEmit(b, r.consumers, r.part, emit)
			})
		}
	}
}
