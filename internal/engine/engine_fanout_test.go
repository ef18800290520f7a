package engine

// Shared streams: a stream whose every route delivers each row to all
// of its edges (a route with one edge, or a broadcast route) writes each
// row once, into one batch that leaves on every edge under a share
// count, and the last consumer to release it returns it to the
// producer. Every consumer reads the same batch and sees what a stream
// copied row by row per edge delivers; a spout's rows wait in the
// stream's one open batch; the steady state allocates nothing; a shared
// batch parked behind checkpoint alignment is released once; and an
// input batch other readers still hold is never handed over, since
// they may switch on its stream.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"briskstream/internal/checkpoint"
	"briskstream/internal/graph"
	"briskstream/internal/tuple"
)

// batchLog is a logSink that also records, in arrival order, every
// batch it was given and the stream each was on.
type batchLog struct {
	logSink
	batches []*tuple.Batch
	streams []tuple.StreamID
}

func (s *batchLog) ProcessBatch(c Collector, b *tuple.Batch) error {
	s.mu.Lock()
	s.batches = append(s.batches, b)
	s.streams = append(s.streams, b.Stream)
	s.mu.Unlock()
	return s.logSink.ProcessBatch(c, b)
}

// fanTopology wires spout -> each of the named consumers over the
// default stream with the given partitioning and replication, every
// consumer a batchLog, and returns the engine and the logs by consumer
// in replica order.
func fanTopology(t *testing.T, cfg Config, spout func() Spout, routes []fanRoute) (*Engine, map[string][]*batchLog) {
	t.Helper()
	g := graph.New("fanout")
	if err := g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}}); err != nil {
		t.Fatal(err)
	}
	logs := map[string][]*batchLog{}
	ops := map[string]func() Operator{}
	repl := map[string]int{}
	for _, r := range routes {
		for _, err := range []error{
			g.AddNode(&graph.Node{Name: r.name, IsSink: true}),
			g.AddEdge(graph.Edge{From: "spout", To: r.name, Stream: "default", Partitioning: r.part, KeyField: 0}),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		ops[r.name] = func() Operator {
			s := &batchLog{}
			logs[r.name] = append(logs[r.name], s)
			return s
		}
		repl[r.name] = r.repl
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := New(Topology{App: g, Spouts: map[string]func() Spout{"spout": spout}, Operators: ops, Replication: repl}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, logs
}

type fanRoute struct {
	name string
	part graph.Partitioning
	repl int
}

// sixRoutes are five single-edge routes and a broadcast over two
// replicas; with c0Repl > 1, c0's fields route spreads over that many
// replicas and the stream is no longer shared.
func sixRoutes(c0Repl int) []fanRoute {
	return []fanRoute{
		{"c0", graph.Fields, c0Repl},
		{"c1", graph.Shuffle, 1},
		{"c2", graph.Fields, 1},
		{"c3", graph.Global, 1},
		{"c4", graph.Shuffle, 1},
		{"bc", graph.Broadcast, 2},
	}
}

// TestFanoutDeliversOneBatch: on a stream with five single-edge routes
// and a two-replica broadcast route, every consumer task gets the same
// batch, per flush, and the rows each consumer operator gets equal, as
// a multiset, those of the same topology with c0 fields-partitioned
// over two replicas — a stream that is not shared, whose every row is
// copied per edge.
func TestFanoutDeliversOneBatch(t *testing.T) {
	noGoroutineLeak(t)
	const n = 500
	run := func(c0Repl int) map[string][]*batchLog {
		e, logs := fanTopology(t, outConfig(), outSpout(n), sixRoutes(c0Repl))
		res, err := e.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Errors) != 0 {
			t.Fatal(res.Errors)
		}
		return logs
	}
	shared, copied := run(1), run(2)

	var first []*tuple.Batch
	for name, ls := range shared {
		for i, l := range ls {
			switch {
			case len(l.batches) == 0:
				t.Fatalf("%s#%d got no batch", name, i)
			case first == nil:
				first = l.batches
			case !slices.Equal(l.batches, first):
				t.Errorf("%s#%d got other batches than the other consumers: %d, want the same %d", name, i, len(l.batches), len(first))
			}
		}
	}
	for name := range shared {
		got, want := fanRows(shared[name]), fanRows(copied[name])
		if len(got) != n*len(shared[name]) {
			t.Errorf("%s got %d rows, want %d per replica", name, len(got), n)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: the shared stream delivered other rows than the copied one", name)
		}
	}
	// The copied run's single-edge consumers got batches of their own.
	for _, b := range copied["c1"][0].batches {
		if slices.Contains(copied["c2"][0].batches, b) {
			t.Fatal("c1 and c2 got one batch on a stream that is not shared")
		}
	}
}

// fanRows returns the rows the logs got, sorted.
func fanRows(ls []*batchLog) []string {
	var rows []string
	for _, l := range ls {
		rows = append(rows, l.rows()...)
	}
	slices.Sort(rows)
	return rows
}

// TestFanoutSpoutPutsPerBatch: a spout emitting one row per Next on a
// stream with three routes fills the stream's one open batch, which
// leaves on the three edges when full: no more jumbos than three per
// BatchSize rows and three for the final watermark.
func TestFanoutSpoutPutsPerBatch(t *testing.T) {
	noGoroutineLeak(t)
	const n = 1000
	cfg := DefaultConfig()
	cfg.Linger = 0
	cfg.LatencySampleEvery = 0
	routes := []fanRoute{{"s0", graph.Shuffle, 1}, {"s1", graph.Fields, 1}, {"s2", graph.Broadcast, 1}}
	e, logs := fanTopology(t, cfg, boundedSpoutEOF(n), routes)
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatal(res.Errors)
	}
	if res.SinkTuples != 3*n {
		t.Fatalf("sinks got %d rows, want %d", res.SinkTuples, 3*n)
	}
	batches := (n + cfg.BatchSize - 1) / cfg.BatchSize
	if limit := uint64(3*batches + 3); res.QueuePuts > limit {
		t.Errorf("%d jumbos put for %d rows on three edges, want at most %d", res.QueuePuts, n, limit)
	}
	for _, r := range routes {
		if got := len(logs[r.name][0].rows()); got != n {
			t.Errorf("%s got %d rows, want %d", r.name, got, n)
		}
	}
}

// fanFwd emits its input onto the default stream: "forward" forwards
// every row (handed over), "sel" forwards the rows not divisible by 3
// through a selection vector (copied once), "out" puts each row through
// Out.
type fanFwd struct {
	mode string
	sel  []int32
	one  OneRow
}

func (o *fanFwd) Process(c Collector, t *tuple.Tuple) error { return o.one.Process(o, c, t) }

func (o *fanFwd) ProcessBatch(c Collector, b *tuple.Batch) error {
	switch o.mode {
	case "forward":
		c.(rowForwarder).ForwardRows(b, nil, tuple.DefaultStreamID)
	case "sel":
		o.sel = o.sel[:0]
		for r := 0; r < b.Len(); r++ {
			if b.Int(0, r)%3 != 0 {
				o.sel = append(o.sel, int32(r))
			}
		}
		c.(rowForwarder).ForwardRows(b, o.sel, tuple.DefaultStreamID)
	case "out":
		for r := 0; r < b.Len(); r++ {
			ob := c.Out(tuple.DefaultStreamID)
			ob.PutInt(b.Int(0, r))
			ob.EndRowFrom(b, r)
		}
	}
	return nil
}

// fanFwdHarness builds spout -> fwd -> {s0, s1, bc×2}, fwd's stream
// shared over four edges, and returns the engine, the spout and fwd
// tasks and a collector for fwd, which the tests drive through
// consumeJumbo on the calling goroutine, and a drain of the consumers.
func fanFwdHarness(t *testing.T, cfg Config, op Operator) (e *Engine, sp, fwd *task, c *collector, drain func()) {
	t.Helper()
	g := graph.New("fanout-fwd")
	for _, err := range []error{
		g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}}),
		g.AddNode(&graph.Node{Name: "fwd", Selectivity: map[string]float64{"default": 1}}),
		g.AddNode(&graph.Node{Name: "s0", IsSink: true}),
		g.AddNode(&graph.Node{Name: "s1", IsSink: true}),
		g.AddNode(&graph.Node{Name: "bc", IsSink: true}),
		g.AddEdge(graph.Edge{From: "spout", To: "fwd", Stream: "default"}),
		g.AddEdge(graph.Edge{From: "fwd", To: "s0", Stream: "default"}),
		g.AddEdge(graph.Edge{From: "fwd", To: "s1", Stream: "default", Partitioning: graph.Fields, KeyField: 0}),
		g.AddEdge(graph.Edge{From: "fwd", To: "bc", Stream: "default", Partitioning: graph.Broadcast}),
		g.Validate(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	sink := func() Operator { return batchSink{} }
	e, err := New(Topology{
		App:         g,
		Spouts:      map[string]func() Spout{"spout": func() Spout { return SpoutFunc(func(Collector) error { return ioEOF }) }},
		Operators:   map[string]func() Operator{"fwd": func() Operator { return op }, "s0": sink, "s1": sink, "bc": sink},
		Replication: map[string]int{"bc": 2},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, fwd = e.byOp["spout"][0], e.byOp["fwd"][0]
	if f := fwd.fanOf(tuple.DefaultStreamID); f == nil || len(f.edges) != 4 {
		t.Fatal("fwd's stream is not shared over its four edges")
	}
	sinks := slices.Concat(e.byOp["s0"], e.byOp["s1"], e.byOp["bc"])
	return e, sp, fwd, &collector{e: e, t: fwd}, inlineDrain(e, sinks)
}

// TestFanoutAllocFree: a shared stream over four edges, fed full
// batches that are handed over, copied once through a selection or put
// row by row, allocates nothing in steady state: the last consumer to
// release a batch parks it on its own edge's free ring, and the next
// open batch comes off whichever of the stream's free rings has one.
func TestFanoutAllocFree(t *testing.T) {
	for _, mode := range []string{"forward", "sel", "out"} {
		t.Run(mode, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.LatencySampleEvery = 0
			e, sp, fwd, c, drain := fanFwdHarness(t, cfg, &fanFwd{mode: mode})
			in := sp.out[fwd.id]
			row := tuple.New(int64(0))
			step := func() {
				b, ok := in.free.TryGet()
				if !ok {
					b = tuple.NewBatch(cfg.BatchSize)
				}
				for v := int64(0); !b.Full(); v++ {
					row.Reset()
					row.AppendInt(v)
					b.Append(row)
				}
				if err := e.consumeJumbo(fwd, c, tuple.Jumbo{Producer: sp.id, Batch: b}); err != nil {
					panic(err)
				}
				drain()
			}
			for i := 0; i < 100; i++ {
				step()
			}
			if avg := testing.AllocsPerRun(1000, step); avg > 0 {
				t.Errorf("%s allocates %.4f per batch, want 0", mode, avg)
			}
			e.flushAll(fwd)
			drain()
			perBatch := cfg.BatchSize
			if mode == "sel" {
				perBatch -= (cfg.BatchSize + 2) / 3
			}
			if got, want := e.sink.Load(), uint64(4*1101*perBatch); got != want {
				t.Errorf("sinks got %d rows, want %d", got, want)
			}
		})
	}
}

// TestFanoutParkedBatchReleasedOnce: a shared batch that one consumer
// parks behind checkpoint alignment while the other consumes it is
// released once by each: it is not recycled while parked, and once the
// alignment completes and the parked batch replays, it reaches a free
// ring exactly once. Both consumers get every row exactly once.
func TestFanoutParkedBatchReleasedOnce(t *testing.T) {
	g := graph.New("fanout-align")
	for _, err := range []error{
		g.AddNode(&graph.Node{Name: "a", IsSpout: true, Selectivity: map[string]float64{"default": 1}}),
		g.AddNode(&graph.Node{Name: "b", IsSpout: true, Selectivity: map[string]float64{"default": 1}}),
		g.AddNode(&graph.Node{Name: "join", IsSink: true}),
		g.AddNode(&graph.Node{Name: "side", IsSink: true}),
		g.AddEdge(graph.Edge{From: "a", To: "join", Stream: "default"}),
		g.AddEdge(graph.Edge{From: "a", To: "side", Stream: "default"}),
		g.AddEdge(graph.Edge{From: "b", To: "join", Stream: "default"}),
		g.Validate(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.LatencySampleEvery = 0
	cfg.Checkpoint = checkpoint.NewCoordinator(nil)
	join, side := &batchLog{}, &batchLog{}
	idle := func() Spout { return SpoutFunc(func(Collector) error { return ioEOF }) }
	e, err := New(Topology{
		App:       g,
		Spouts:    map[string]func() Spout{"a": idle, "b": idle},
		Operators: map[string]func() Operator{"join": func() Operator { return join }, "side": func() Operator { return side }},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := e.byOp["a"][0], e.byOp["b"][0]
	jt, st := e.byOp["join"][0], e.byOp["side"][0]
	ca, cb := &collector{e: e, t: a}, &collector{e: e, t: b}
	cj, cs := &collector{e: e, t: jt}, &collector{e: e, t: st}
	emit := func(c *collector, from, to int64) {
		t.Helper()
		for v := from; v < to; v++ {
			sendInt(c, v)
		}
		if c.settle(); c.fail != nil {
			t.Fatal(c.fail)
		}
	}
	barrier := func(c *collector, id uint64) {
		t.Helper()
		c.settle()
		if err := e.sourceBarrier(c.t, c, id); err != nil {
			t.Fatal(err)
		}
	}
	drain := func(tk *task, c *collector) {
		t.Helper()
		for {
			j, ok, _ := tk.in.TryGet()
			if !ok {
				return
			}
			if err := e.admit(tk, c, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	// parked returns how often each batch sits on a's free rings.
	parked := func() map[*tuple.Batch]int {
		seen := map[*tuple.Batch]int{}
		for _, oe := range a.outList {
			var back []*tuple.Batch
			for {
				fb, ok := oe.free.TryGet()
				if !ok {
					break
				}
				seen[fb]++
				back = append(back, fb)
			}
			for _, fb := range back {
				oe.free.TryPut(fb)
			}
		}
		return seen
	}

	id := e.TriggerCheckpoint()
	emit(ca, 0, 10) // before a's barrier, in the barrier's jumbo
	barrier(ca, id)
	emit(ca, 10, 20) // after it: join parks this batch
	e.flushAll(a)
	emit(cb, 100, 105) // before b's barrier
	e.flushAll(b)
	drain(jt, cj)
	drain(st, cs)
	if len(jt.alignBuf) != 1 || len(side.batches) != 2 {
		t.Fatalf("join parked %d jumbos and side consumed %d batches, want 1 and 2", len(jt.alignBuf), len(side.batches))
	}
	held := side.batches[1]
	if jt.alignBuf[0].Batch != held {
		t.Fatal("join parked another batch than the one side consumed")
	}
	if n := parked()[held]; n != 0 {
		t.Fatalf("the parked batch is on a free ring %d times while join still holds it", n)
	}
	barrier(cb, id)
	drain(jt, cj)
	if jt.alignID != 0 || len(jt.alignBuf) != 0 {
		t.Fatalf("alignment still open: id %d, %d parked", jt.alignID, len(jt.alignBuf))
	}
	if got := parked(); got[held] != 1 || got[side.batches[0]] != 1 {
		t.Errorf("the two shared batches are on the free rings %d and %d times, want once each", got[side.batches[0]], got[held])
	}
	want := func(ranges ...[2]int64) []string {
		var rows []string
		for _, r := range ranges {
			for v := r[0]; v < r[1]; v++ {
				rows = append(rows, fmt.Sprint(v))
			}
		}
		slices.Sort(rows)
		return rows
	}
	if got := sinkValues(join); !slices.Equal(got, want([2]int64{0, 20}, [2]int64{100, 105})) {
		t.Errorf("join got %v", got)
	}
	if got := sinkValues(side); !slices.Equal(got, want([2]int64{0, 20})) {
		t.Errorf("side got %v", got)
	}
}

// sinkValues returns the int column of every row the log got, as
// sorted strings.
func sinkValues(l *batchLog) []string {
	var vals []string
	for _, row := range l.rows() {
		v, _, _ := strings.Cut(strings.TrimPrefix(row, "["), "]")
		vals = append(vals, v)
	}
	slices.Sort(vals)
	return vals
}

// restreamOp forwards every input batch whole onto its stream.
type restreamOp struct {
	stream tuple.StreamID
	one    OneRow
}

func (o *restreamOp) Process(c Collector, t *tuple.Tuple) error { return o.one.Process(o, c, t) }

func (o *restreamOp) ProcessBatch(c Collector, b *tuple.Batch) error {
	c.(rowForwarder).ForwardRows(b, nil, o.stream)
	return nil
}

// TestFanoutRefusesSharedHandover: a consumer of a shared stream that
// forwards its whole input onto a one-edge stream copies it instead of
// handing it over — its sibling reads the same batch and switches on
// its stream, which a hand-over would re-stamp under it. Both the
// sibling and the forward's sink get every row exactly once, and the
// sibling never sees another stream than the one the rows were sent on.
func TestFanoutRefusesSharedHandover(t *testing.T) {
	g := graph.New("fanout-refuse")
	for _, err := range []error{
		g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}}),
		g.AddNode(&graph.Node{Name: "fwd", Selectivity: map[string]float64{"fwd": 1}}),
		g.AddNode(&graph.Node{Name: "sib", IsSink: true}),
		g.AddNode(&graph.Node{Name: "sink", IsSink: true}),
		g.AddEdge(graph.Edge{From: "spout", To: "fwd", Stream: "default"}),
		g.AddEdge(graph.Edge{From: "spout", To: "sib", Stream: "default"}),
		g.AddEdge(graph.Edge{From: "fwd", To: "sink", Stream: "fwd"}),
		g.Validate(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.LatencySampleEvery = 0
	sib, sink := &batchLog{}, &batchLog{}
	fwdID := tuple.Intern("fwd")
	e, err := New(Topology{
		App:    g,
		Spouts: map[string]func() Spout{"spout": func() Spout { return SpoutFunc(func(Collector) error { return ioEOF }) }},
		Operators: map[string]func() Operator{
			"fwd":  func() Operator { return &restreamOp{stream: fwdID} },
			"sib":  func() Operator { return sib },
			"sink": func() Operator { return sink },
		},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := e.byOp["spout"][0]
	pc := &collector{e: e, t: sp}
	n := int64(5*cfg.BatchSize + 3)
	for v := int64(0); v < n; v++ {
		sendInt(pc, v)
	}
	pc.settle()
	e.flushAll(sp)
	// fwd consumes each batch while sib still holds it; then sib reads.
	inlineDrain(e, e.byOp["fwd"])()
	e.flushAll(e.byOp["fwd"][0])
	inlineDrain(e, e.byOp["sib"])()
	inlineDrain(e, e.byOp["sink"])()

	for i, s := range sib.streams {
		if s != tuple.DefaultStreamID {
			t.Fatalf("sib's batch %d is on stream %q, want the default stream it was sent on", i, s.String())
		}
	}
	var want []string
	for v := int64(0); v < n; v++ {
		want = append(want, fmt.Sprint(v))
	}
	slices.Sort(want)
	for name, l := range map[string]*batchLog{"sib": sib, "sink": sink} {
		if got := sinkValues(l); !slices.Equal(got, want) {
			t.Errorf("%s got %d rows %v, want 0..%d once each", name, len(got), got, n-1)
		}
	}
	for _, b := range sink.batches {
		if slices.Contains(sib.batches, b) {
			t.Fatal("a batch sib read was handed over to fwd's sink")
		}
	}
}
