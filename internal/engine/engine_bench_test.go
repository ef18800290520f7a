package engine

// engine_bench_test.go measures the dispatch hot path in isolation: the
// partition controller, per-consumer batch accumulation and the SPSC
// enqueue, without spout/operator work on top. Run with:
//
//	go test -bench EngineDispatch -run xxx ./internal/engine/

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"briskstream/internal/graph"
)

// benchDispatch pushes b.N tuples through one producer task's
// Borrow/Send into `consumers` scalar sink replicas, each drained by
// the engine's own task driver.
func benchDispatch(b *testing.B, consumers int, part graph.Partitioning) {
	b.Helper()
	g := graph.New("dispatch")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "sink", Stream: "default", Partitioning: part, KeyField: 0})
	if err := g.Validate(); err != nil {
		b.Fatal(err)
	}
	topo := Topology{
		App: g,
		Spouts: map[string]func() Spout{"spout": func() Spout {
			return SpoutFunc(func(c Collector) error { return io.EOF })
		}},
		Operators:   map[string]func() Operator{"sink": func() Operator { return sinkOp() }},
		Replication: map[string]int{"sink": consumers},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	producer := e.byOp["spout"][0]
	var wg sync.WaitGroup
	for _, ct := range e.byOp["sink"] {
		wg.Add(1)
		go func(ct *task) {
			defer wg.Done()
			e.runTask(ct)
		}(ct)
	}
	// The measured loop is the emit→dispatch path itself (borrow, fill
	// typed slots, route, append to the edge's batch, enqueue), which
	// must not allocate in steady state.
	c := &collector{e: e, t: producer}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := c.Borrow()
		out.AppendInt(1042)
		c.Send(out)
	}
	if c.fail != nil {
		b.Fatal(c.fail)
	}
	e.flushAll(producer)
	e.finishProducing(producer)
	wg.Wait()
	if len(e.errs) != 0 {
		b.Fatal(e.errs)
	}
}

func BenchmarkEngineDispatch(b *testing.B) {
	for _, consumers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shuffle-c%d", consumers), func(b *testing.B) {
			benchDispatch(b, consumers, graph.Shuffle)
		})
	}
	b.Run("fields-c4", func(b *testing.B) {
		benchDispatch(b, 4, graph.Fields)
	})
}
