package engine

// Allocation guards for the emit→dispatch→consume hot path: it must not
// allocate per tuple in steady state — rows carry typed slots (string
// payloads in recycled arenas, no boxing), Borrow hands out scratch
// rows, batches come back over the edge's free ring, jumbo headers
// travel by value, the row adapter refills one task-local tuple,
// routing indexes interned stream ids, and fields hashing is inline over slots. The bound is exactly
// zero.

import (
	"io"
	"strings"
	"testing"

	"briskstream/internal/graph"
	"briskstream/internal/obs"
)

// allocHarness builds a spout->sink edge with `consumers` sink replicas
// built by mk and returns the producer's collector plus a drain func
// that empties the consumer inboxes inline through consumeJumbo, the
// way runTask does — so drained batches recycle onto the edge's free
// ring. Draining on the measuring goroutine keeps the recycle loop
// alive under testing.AllocsPerRun, which pins GOMAXPROCS(1) and would
// starve background drain goroutines.
func allocHarness(t testing.TB, cfg Config, consumers int, part graph.Partitioning, mk func() Operator) (*collector, func()) {
	t.Helper()
	g := graph.New("alloc")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "sink", Stream: "default", Partitioning: part, KeyField: 0})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	topo := Topology{
		App: g,
		Spouts: map[string]func() Spout{"spout": func() Spout {
			return SpoutFunc(func(c Collector) error { return io.EOF })
		}},
		Operators:   map[string]func() Operator{"sink": mk},
		Replication: map[string]int{"sink": consumers},
	}
	e, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &collector{e: e, t: e.byOp["spout"][0]}, inlineDrain(e, e.byOp["sink"])
}

// inlineDrain returns a func that empties the consumers' inboxes
// through consumeJumbo on the calling goroutine (see allocHarness).
func inlineDrain(e *Engine, consumers []*task) func() {
	cols := make([]*collector, len(consumers))
	for i, ct := range consumers {
		cols[i] = &collector{e: e, t: ct}
	}
	return func() {
		for i, ct := range consumers {
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
}

// TestEmitDispatchAllocFreeBriskMode covers Borrow+Send into a scalar
// consumer, i.e. through the row adapter.
func TestEmitDispatchAllocFreeBriskMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LatencySampleEvery = 0 // time.Now stamping is not the measured path
	for _, part := range []graph.Partitioning{graph.Shuffle, graph.Fields} {
		c, drain := allocHarness(t, cfg, 4, part, sinkOp)
		emit := func() {
			out := c.Borrow()
			out.AppendStr("the quick brown fox")
			out.AppendInt(100042)
			c.Send(out)
			drain()
		}
		for i := 0; i < 1000; i++ {
			emit() // warm the pools
		}
		avg := testing.AllocsPerRun(5000, emit)
		if avg > 0 {
			t.Errorf("%v: emit->dispatch allocates %.2f/op in BriskStream mode, want 0", part, avg)
		}
	}
}

func TestEmitDispatchAllocFreeWithObs(t *testing.T) {
	// Observability on must not change the zero-alloc bound: RegisterObs
	// enables pool accounting and registers pull-based series over the
	// engine's atomics, so the emit->dispatch path pays only predictable
	// branches. A scrape between warm-up and measurement proves reading
	// the series does not make the hot path allocate either.
	cfg := DefaultConfig()
	cfg.LatencySampleEvery = 0 // time.Now stamping is not the measured path
	c, drain := allocHarness(t, cfg, 4, graph.Shuffle, sinkOp)
	reg := obs.NewRegistry(0)
	c.e.RegisterObs(reg.Group("engine"), obs.NewJournal(0))
	emit := func() {
		out := c.Borrow()
		out.AppendStr("the quick brown fox")
		out.AppendInt(100042)
		c.Send(out)
		drain()
	}
	for i := 0; i < 1000; i++ {
		emit()
	}
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5000, emit)
	if avg > 0 {
		t.Errorf("emit->dispatch allocates %.2f/op with observability registered, want 0", avg)
	}
}

func TestEmitDispatchAllocFreeWithTracing(t *testing.T) {
	// Tracing registered must keep the bound at exactly zero in both
	// regimes: the every-k-th sampled tuple writes its source span into a
	// preallocated ring slot (atomics over fixed words, no boxing), and
	// the unsampled tuples pay only the stride counter branch. k=1 is
	// the worst case — every emit stamps a trace context and appends a
	// span.
	for _, every := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.LatencySampleEvery = 0 // time.Now stamping is not the measured path
		cfg.TraceSampleEvery = every
		c, drain := allocHarness(t, cfg, 4, graph.Shuffle, sinkOp)
		tracer := obs.NewTracer()
		c.e.RegisterTrace(tracer)
		emit := func() {
			out := c.Borrow()
			out.AppendStr("the quick brown fox")
			out.AppendInt(100042)
			c.Send(out)
			drain()
		}
		for i := 0; i < 1000; i++ {
			emit()
		}
		avg := testing.AllocsPerRun(5000, emit)
		if avg > 0 {
			t.Errorf("every=%d: emit->dispatch allocates %.2f/op with tracing registered, want 0", every, avg)
		}
		if tracer.Len() == 0 {
			t.Errorf("every=%d: tracer captured no spans", every)
		}
	}
}
