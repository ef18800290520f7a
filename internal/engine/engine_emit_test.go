package engine

// The emit and consume halves of the one transport: Borrow hands out
// scratch rows, Send copies a row into every destination edge's batch
// and recycles it once; a scalar consumer gets each batch row by row
// through the adapter with its per-row context intact, while a traced
// batch into a batch-aware consumer stays one ProcessBatch call; and
// the counters the collector publishes per jumbo are exact whenever a
// run has ended.

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"briskstream/internal/graph"
	"briskstream/internal/obs"
	"briskstream/internal/tuple"
)

// fanoutEngine wires a spout whose default stream has four routes:
// shuffle and fields into two replicas each, global, and broadcast into
// two replicas.
func fanoutEngine(t *testing.T) *Engine {
	t.Helper()
	g := graph.New("fanout")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}}))
	ops := map[string]func() Operator{}
	for name, part := range map[string]graph.Partitioning{
		"shuffled": graph.Shuffle, "keyed": graph.Fields, "global": graph.Global, "all": graph.Broadcast,
	} {
		must(g.AddNode(&graph.Node{Name: name, IsSink: true}))
		must(g.AddEdge(graph.Edge{From: "spout", To: name, Stream: "default", Partitioning: part, KeyField: 0}))
		ops[name] = sinkOp
	}
	must(g.Validate())
	cfg := DefaultConfig()
	cfg.LatencySampleEvery = 0 // the test stamps Ts itself
	e, err := New(Topology{
		App:         g,
		Spouts:      map[string]func() Spout{"spout": func() Spout { return SpoutFunc(func(Collector) error { return io.EOF }) }},
		Operators:   ops,
		Replication: map[string]int{"shuffled": 2, "keyed": 2, "global": 2, "all": 2},
	}, cfg)
	must(err)
	return e
}

// TestSendFansOutIdenticalRowsAndRecyclesOnce: one Send over shuffle,
// fields, global and broadcast routes lands the same row on every edge
// it reaches — recycling the scratch row after the first
// destination would hand the later ones an empty row — and returns the
// row to the scratch stack exactly once.
func TestSendFansOutIdenticalRowsAndRecyclesOnce(t *testing.T) {
	e := fanoutEngine(t)
	producer := e.byOp["spout"][0]
	c := &collector{e: e, t: producer}

	row := c.Borrow()
	row.AppendSym(tuple.InternSym("fanout-key"))
	row.AppendStr("an arena string")
	row.AppendInt(-7)
	row.AppendFloat(2.5)
	row.AppendBool(true)
	row.Event = 42
	row.Ts = time.Unix(0, 1234)
	want := tuple.NewBatch(e.cfg.BatchSize)
	want.Append(row)

	c.Send(row)
	if c.fail != nil {
		t.Fatal(c.fail)
	}
	if again := c.Borrow(); again != row {
		t.Error("the sent row did not come back on the next Borrow")
	} else if again.Len() != 0 || again.Event != 0 || !again.Ts.IsZero() {
		t.Errorf("recycled row is not clean: %v event=%d ts=%v", again, again.Event, again.Ts)
	}
	if c.Borrow() == row {
		t.Error("the sent row was recycled more than once")
	}

	c.settle()
	e.flushAll(producer)
	reached := map[string]int{}
	for _, oe := range producer.outList {
		j, ok, _ := oe.consumer.in.TryGet()
		if !ok {
			continue
		}
		reached[oe.consumer.op]++
		if diff := batchDiff(j.Batch, want); diff != "" {
			t.Errorf("edge to %s: %s", oe.consumer.label, diff)
		}
	}
	for op, n := range map[string]int{"shuffled": 1, "keyed": 1, "global": 1, "all": 2} {
		if reached[op] != n {
			t.Errorf("row reached %d replicas of %s, want %d", reached[op], op, n)
		}
	}
	if got := e.byOp["global"][1].in.Len(); got != 0 {
		t.Errorf("global route reached replica 1")
	}
}

// batchDiff describes the first difference between two batches, field
// by field — layout, every slot (strings by value), the four metadata
// lanes — or returns "" when they carry the same rows.
func batchDiff(got, want *tuple.Batch) string {
	if got.Stream != want.Stream || got.Len() != want.Len() || got.Cols() != want.Cols() {
		return fmt.Sprintf("layout stream %d, %d rows x %d cols; want stream %d, %d x %d",
			got.Stream, got.Len(), got.Cols(), want.Stream, want.Len(), want.Cols())
	}
	for c := 0; c < want.Cols(); c++ {
		if got.Kind(c) != want.Kind(c) {
			return fmt.Sprintf("column %d is %v, want %v", c, got.Kind(c), want.Kind(c))
		}
		for r := 0; r < want.Len(); r++ {
			if want.Kind(c) == tuple.KindStr {
				if got.Str(c, r) != want.Str(c, r) {
					return fmt.Sprintf("row %d column %d = %q, want %q", r, c, got.Str(c, r), want.Str(c, r))
				}
			} else if got.Col(c)[r] != want.Col(c)[r] {
				return fmt.Sprintf("row %d column %d slot = %#x, want %#x", r, c, got.Col(c)[r], want.Col(c)[r])
			}
		}
	}
	for r := 0; r < want.Len(); r++ {
		if !got.Ts(r).Equal(want.Ts(r)) || got.Event(r) != want.Event(r) ||
			got.TraceID(r) != want.TraceID(r) || got.TraceOrigin(r) != want.TraceOrigin(r) {
			return fmt.Sprintf("row %d metadata differs", r)
		}
	}
	return ""
}

// TestBorrowedRowsAreDistinctScratch: outstanding Borrows never alias,
// whatever order they are sent in, and a row borrowed but never sent
// does not bleed into the next one.
func TestBorrowedRowsAreDistinctScratch(t *testing.T) {
	var got []int64
	e := buildBatchEngine(t, DefaultConfig(), func() Operator {
		return OperatorFunc(func(_ Collector, in *tuple.Tuple) error {
			got = append(got, in.Int(0), in.Event)
			return nil
		})
	})
	producer, sink := e.byOp["spout"][0], e.byOp["sink"][0]
	c := &collector{e: e, t: producer}

	a, b := c.Borrow(), c.Borrow()
	if a == b {
		t.Fatal("two outstanding Borrows returned the same row")
	}
	a.AppendInt(1)
	b.AppendInt(2)
	c.Send(b)
	c.Send(a)

	dropped := c.Borrow()
	dropped.AppendInt(99)
	dropped.Event = 5
	next := c.Borrow()
	if next == dropped || next.Len() != 0 || next.Event != 0 {
		t.Fatalf("row after an unsent Borrow is not a clean, distinct row: %v event=%d", next, next.Event)
	}
	next.AppendInt(3)
	c.Send(next)

	e.flushAll(producer)
	j, ok, _ := sink.in.TryGet()
	if !ok {
		t.Fatal("nothing enqueued")
	}
	if err := e.consumeJumbo(sink, &collector{e: e, t: sink}, j); err != nil {
		t.Fatal(err)
	}
	if want := []int64{2, 0, 1, 0, 3, 0}; !slices.Equal(got, want) {
		t.Fatalf("sink saw (value, event) %v, want %v", got, want)
	}
}

// TestSendInputTuple: an operator may pass its own input — the task's
// one adapter row — to Send. The row is copied out like any other, and
// Send does not recycle it: the Borrow that follows, on every row of
// every batch, hands out a row distinct from the input just sent.
func TestSendInputTuple(t *testing.T) {
	const n = 5000
	g := graph.New("fwd-input")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "fwd", Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "fwd", Stream: "default"})
	g.AddEdge(graph.Edge{From: "fwd", To: "sink", Stream: "default"})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var sum int64
	e, err := New(Topology{
		App:    g,
		Spouts: map[string]func() Spout{"spout": boundedSpoutEOF(n)},
		Operators: map[string]func() Operator{
			"fwd": func() Operator {
				return OperatorFunc(func(c Collector, in *tuple.Tuple) error {
					v := in.Int(0)
					c.Send(in)
					out := c.Borrow()
					if out == in {
						return fmt.Errorf("row %d: Borrow after Send handed back the input", v)
					}
					out.AppendInt(v + n)
					c.Send(out)
					return nil
				})
			},
			"sink": func() Operator {
				return OperatorFunc(func(_ Collector, in *tuple.Tuple) error { sum += in.Int(0); return nil })
			},
		},
	}, DefaultConfig())
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
	if want := int64(n)*(n-1) + n*n; res.SinkTuples != 2*n || sum != want {
		t.Fatalf("sink got %d tuples summing to %d, want %d summing to %d", res.SinkTuples, sum, 2*n, want)
	}
}

// rowContext is what a scalar consumer can observe about one input row.
type rowContext struct {
	v, event, origin int64
	ts               time.Time
	trace            uint64
}

// TestRowAdapterCarriesPerRowContext: a scalar consumer fed row by row
// sees each row's own Ts, Event and trace context, and leaves one span
// per traced row.
func TestRowAdapterCarriesPerRowContext(t *testing.T) {
	var seen []rowContext
	cfg := DefaultConfig()
	cfg.LatencySampleEvery = 0
	cfg.TraceSampleEvery = 1
	e := buildBatchEngine(t, cfg, func() Operator {
		return OperatorFunc(func(_ Collector, in *tuple.Tuple) error {
			seen = append(seen, rowContext{in.Int(0), in.Event, in.TraceOrigin, in.Ts, in.TraceID})
			return nil
		})
	})
	e.RegisterTrace(obs.NewTracer())
	producer, sink := e.byOp["spout"][0], e.byOp["sink"][0]
	c := &collector{e: e, t: producer}
	var sent []rowContext
	for i := int64(1); i <= 3; i++ {
		out := c.Borrow()
		out.AppendInt(i)
		out.Event = 100 * i
		out.Ts = time.Unix(0, i)
		c.Send(out)
	}
	for i, s := range producer.spans.Snapshot(nil) {
		v := int64(i + 1)
		sent = append(sent, rowContext{v, 100 * v, s.OriginNs, time.Unix(0, v), s.TraceID})
	}
	e.flushAll(producer)
	j, ok, _ := sink.in.TryGet()
	if !ok || !j.Batch.HasTrace() {
		t.Fatalf("want one traced batch, got %+v", j)
	}
	if err := e.consumeJumbo(sink, &collector{e: e, t: sink}, j); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || len(sent) != 3 {
		t.Fatalf("sent %d rows, consumer saw %d", len(sent), len(seen))
	}
	for i := range sent {
		if seen[i] != sent[i] || seen[i].trace == 0 {
			t.Errorf("row %d arrived as %+v, sent as %+v", i, seen[i], sent[i])
		}
	}
	if spans := sink.spans.Len(); spans != 3 {
		t.Errorf("traced 3-row batch left %d hop spans, want 3", spans)
	}
}

// timedBatchOp is a batch-aware consumer that counts its ProcessBatch
// calls and records how long they took.
type timedBatchOp struct {
	OperatorFunc
	calls *int
	took  *time.Duration
}

func (o timedBatchOp) ProcessBatch(Collector, *tuple.Batch) error {
	start := time.Now()
	time.Sleep(3 * time.Millisecond)
	*o.calls++
	*o.took += time.Since(start)
	return nil
}

// timedRowOp is a row-only consumer that counts its Process calls and
// records how long they took. Only the first row is slow, so a span
// charged its own row's time instead of an equal share would miss.
func timedRowOp(calls *int, took *time.Duration) Operator {
	return OperatorFunc(func(Collector, *tuple.Tuple) error {
		start := time.Now()
		if *calls == 0 {
			time.Sleep(3 * time.Millisecond)
		}
		*calls++
		*took += time.Since(start)
		return nil
	})
}

// TestTracedBatchStaysVectorized: tracing does not change which path a
// batch takes. A traced 3-row batch into a BatchOperator is one
// ProcessBatch call, into a row-only operator three Process calls; both
// leave one hop span per traced row, each charged a third of the
// batch's service time.
func TestTracedBatchStaysVectorized(t *testing.T) {
	for _, tc := range []struct {
		name  string
		calls int
		mk    func(calls *int, took *time.Duration) Operator
	}{
		{"batch-aware", 1, func(calls *int, took *time.Duration) Operator {
			return timedBatchOp{OperatorFunc(func(Collector, *tuple.Tuple) error {
				return errors.New("a traced batch took the row adapter")
			}), calls, took}
		}},
		{"row-only", 3, timedRowOp},
	} {
		var calls int
		var took time.Duration
		cfg := DefaultConfig()
		cfg.LatencySampleEvery = 0
		cfg.TraceSampleEvery = 1
		e := buildBatchEngine(t, cfg, func() Operator { return tc.mk(&calls, &took) })
		e.RegisterTrace(obs.NewTracer())
		producer, sink := e.byOp["spout"][0], e.byOp["sink"][0]
		c := &collector{e: e, t: producer}
		for i := int64(1); i <= 3; i++ {
			out := c.Borrow()
			out.AppendInt(i)
			c.Send(out)
		}
		traces := map[uint64]bool{}
		for _, s := range producer.spans.Snapshot(nil) {
			traces[s.TraceID] = true
		}
		e.flushAll(producer)
		j, ok, _ := sink.in.TryGet()
		if !ok || !j.Batch.HasTrace() || j.Len() != 3 {
			t.Fatalf("%s: want one traced 3-row batch, got %+v", tc.name, j)
		}
		start := time.Now()
		if err := e.consumeJumbo(sink, &collector{e: e, t: sink}, j); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if calls != tc.calls {
			t.Fatalf("%s: operator called %d times, want %d", tc.name, calls, tc.calls)
		}
		spans := sink.spans.Snapshot(nil)
		if len(spans) != 3 || len(traces) != 3 {
			t.Fatalf("%s: traced 3-row batch left %d hop spans for %d traces, want 3 and 3", tc.name, len(spans), len(traces))
		}
		lo, hi := int64(took)/3, int64(elapsed)/3
		for i, s := range spans {
			if s.Kind != obs.SpanHop || !traces[s.TraceID] {
				t.Errorf("%s: span %d = %+v, want a hop span on one of the sent traces", tc.name, i, s)
			}
			delete(traces, s.TraceID)
			if s.ServiceNs < lo || s.ServiceNs > hi {
				t.Errorf("%s: span %d charged %dns, want a third of the batch's service time (%d..%dns)", tc.name, i, s.ServiceNs, lo, hi)
			}
		}
	}
}

// lateEmitter counts its input and emits `burst` rows only when the
// final watermark arrives — after the payload of the last jumbo.
type lateEmitter struct {
	seen  atomic.Int64
	burst int
}

func (o *lateEmitter) Process(Collector, *tuple.Tuple) error { o.seen.Add(1); return nil }

func (o *lateEmitter) OnWatermark(c Collector, wm int64) error {
	if wm == WatermarkMax {
		for i := 0; i < o.burst; i++ {
			sendInt(c, int64(i))
		}
	}
	return nil
}

func lateGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("late")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "late", Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "late", Stream: "default"})
	g.AddEdge(graph.Edge{From: "late", To: "sink", Stream: "default"})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCountersExactWhenRunEnds: the collector publishes processed and
// emitted per jumbo, not per row, so the last publish must come after
// the trailer — rows a window fires on the final watermark are emitted
// past the payload — and Result, ProfileSnapshot and /metrics must all
// agree on the exact totals once Run returns.
func TestCountersExactWhenRunEnds(t *testing.T) {
	const n, burst = 1000, 37
	late := &lateEmitter{burst: burst}
	e, err := New(Topology{
		App:       lateGraph(t),
		Spouts:    map[string]func() Spout{"spout": boundedSpoutEOF(n)},
		Operators: map[string]func() Operator{"late": func() Operator { return late }, "sink": sinkOp},
	}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(0)
	e.RegisterObs(reg.Group("engine"), obs.NewJournal(0))
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if res.Processed["spout"] != n || res.Processed["late"] != n || res.Processed["sink"] != burst || res.SinkTuples != burst {
		t.Errorf("Result: processed %v, sink tuples %d; want spout=late=%d, sink=%d", res.Processed, res.SinkTuples, n, burst)
	}
	emitted := map[string]uint64{}
	for _, ts := range e.ProfileSnapshot().Tasks {
		emitted[ts.Op] += ts.Emitted
	}
	if emitted["spout"] != n || emitted["late"] != burst || emitted["sink"] != 0 {
		t.Errorf("ProfileSnapshot emitted = %v, want spout=%d late=%d sink=0", emitted, n, burst)
	}
	var prom strings.Builder
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if want := `brisk_task_emitted_total{op="late",task="late#0",socket="0"} 37`; !strings.Contains(prom.String(), want) {
		t.Errorf("/metrics lacks %q", want)
	}
}

// TestCountersNeverLeadAndSurviveKill: mid-run the published counts may
// trail the truth by a batch but never lead it, and a killed run's
// final counts are still exact.
func TestCountersNeverLeadAndSurviveKill(t *testing.T) {
	var sent atomic.Int64
	late := &lateEmitter{}
	e, err := New(Topology{
		App: lateGraph(t),
		Spouts: map[string]func() Spout{"spout": func() Spout {
			return SpoutFunc(func(c Collector) error {
				sendInt(c, sent.Add(1))
				return nil
			})
		}},
		Operators: map[string]func() Operator{"late": func() Operator { return late }, "sink": sinkOp},
	}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Result, 1)
	go func() {
		res, _ := e.Run(0)
		done <- res
	}()
	for polls := 0; polls < 200 || late.seen.Load() < 20000; polls++ {
		// Read the published count first: the truth only grows.
		snap := e.Snapshot()
		if truth := uint64(sent.Load()); snap["spout"] > truth {
			t.Fatalf("published spout count %d leads the %d rows sent", snap["spout"], truth)
		}
		if truth := uint64(late.seen.Load()); snap["late"] > truth {
			t.Fatalf("published operator count %d leads the %d rows processed", snap["late"], truth)
		}
	}
	e.Kill()
	res := <-done
	if len(res.Errors) != 0 {
		t.Fatalf("killed run errors: %v", res.Errors)
	}
	if got, want := res.Processed["spout"], uint64(sent.Load()); got != want {
		t.Errorf("killed run: Processed[spout] = %d, spout sent %d", got, want)
	}
	if got, want := res.Processed["late"], uint64(late.seen.Load()); got != want {
		t.Errorf("killed run: Processed[late] = %d, operator saw %d", got, want)
	}
}

// TestForwardRowsAllocFree: forwarding rows column-to-column, whole
// batch or selection, allocates nothing in steady state.
func TestForwardRowsAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LatencySampleEvery = 0
	c, drain := allocHarness(t, cfg, 4, graph.Fields, func() Operator { return batchSink{} })
	src := tuple.NewBatch(8)
	for i := int64(0); i < 8; i++ {
		row := tuple.New("the quick brown fox", i)
		src.Append(row)
	}
	sel := []int32{1, 3, 5}
	forward := func() {
		c.ForwardRows(src, nil, tuple.DefaultStreamID)
		c.ForwardRows(src, sel, tuple.DefaultStreamID)
		drain()
	}
	for i := 0; i < 500; i++ {
		forward()
	}
	if avg := testing.AllocsPerRun(2000, forward); avg > 0 {
		t.Errorf("ForwardRows allocates %.4f per 11 rows, want 0", avg)
	}
	if c.fail != nil {
		t.Fatal(c.fail)
	}
	if c.emitted != 11*2501 {
		t.Errorf("emitted = %d after %d forwards of 11 rows", c.emitted, 2501)
	}
}

func TestSharedFanoutTupleSurvivesAllConsumers(t *testing.T) {
	// One emitted tuple reaches several consumer tasks (multiple routes
	// on the same stream, as in LR's position report). Every consumer
	// must read intact values; -race catches a recycle racing a slower
	// consumer.
	const n = 5000
	g := graph.New("fanout")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "left", Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "right", Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "left", Stream: "default"})
	g.AddEdge(graph.Edge{From: "spout", To: "right", Stream: "default"})
	g.AddEdge(graph.Edge{From: "left", To: "sink", Stream: "default"})
	g.AddEdge(graph.Edge{From: "right", To: "sink", Stream: "default"})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	check := func() Operator {
		return OperatorFunc(func(c Collector, tp *tuple.Tuple) error {
			if v := tp.Int(0); v < 0 || v >= n {
				t.Errorf("clobbered payload %d", v)
			}
			forwardTuple(c, tp)
			return nil
		})
	}
	topo := Topology{
		App:       g,
		Spouts:    map[string]func() Spout{"spout": boundedSpoutEOF(n)},
		Operators: map[string]func() Operator{"left": check, "right": check, "sink": sinkOp},
	}
	e, err := New(topo, DefaultConfig())
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
	if res.SinkTuples != 2*n {
		t.Fatalf("sink tuples = %d, want %d", res.SinkTuples, 2*n)
	}
}
