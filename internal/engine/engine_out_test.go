package engine

// Collector.Out, the one emit path: rows put straight into the output
// batch reach every consumer exactly as the same rows sent through
// Borrow/Send (an adapter over Out) do — payload, metadata and order, interleaved
// with Send rows or not, over a single edge or through the staging
// batch — punctuation follows them, a mis-typed put row fails its task
// at the source, the counters stay exact and the path allocates
// nothing.

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"briskstream/internal/checkpoint"
	"briskstream/internal/graph"
	"briskstream/internal/tuple"
)

// outRoute is one op→sink wiring the Out tests run over.
type outRoute struct {
	name  string
	part  graph.Partitioning
	repl  int
	fanTo int // sink replicas each row reaches
}

// outRoutes are the shared streams (shuffle-1, fields-1, broadcast-2),
// where Out hands out the stream's one open batch, and the staged one
// (fields-3).
var outRoutes = []outRoute{
	{"shuffle-1", graph.Shuffle, 1, 1},
	{"fields-1", graph.Fields, 1, 1},
	{"fields-3", graph.Fields, 3, 1},
	{"broadcast-2", graph.Broadcast, 2, 2},
}

var (
	outKeys  = tuple.InternSyms("k0", "k1", "k2", "k3", "k4", "k5", "k6")
	outNotes = []string{"", "a", "an arena string", "emitted"}
)

// outOp emits two rows (key, seq, note, score, flag) per input row with
// the input row's metadata: through Out (mode "out"), through
// Borrow/StampMeta/Send ("send"), or every third row through Send and
// the rest through Out ("mixed"). Mode "out-wm" is "out" that also puts
// one row per watermark from OnWatermark.
type outOp struct {
	mode string
	one  OneRow
	wm   *tuple.Batch // the input row OnWatermark's rows copy metadata from
}

func (o *outOp) Process(c Collector, t *tuple.Tuple) error { return o.one.Process(o, c, t) }

func (o *outOp) ProcessBatch(c Collector, b *tuple.Batch) error {
	for r := 0; r < b.Len(); r++ {
		v := b.Int(0, r)
		o.emit(c, b, r, 2*v)
		o.emit(c, b, r, 2*v+1)
	}
	return nil
}

func (o *outOp) emit(c Collector, b *tuple.Batch, r int, seq int64) {
	key, note := outKeys[seq%int64(len(outKeys))], outNotes[seq%int64(len(outNotes))]
	if o.mode != "send" && (o.mode != "mixed" || seq%3 != 0) {
		ob := c.Out(tuple.DefaultStreamID)
		ob.PutSym(key)
		ob.PutInt(seq)
		ob.PutStr(note)
		ob.PutFloat(float64(seq) / 4)
		ob.PutBool(seq%2 == 0)
		ob.EndRowFrom(b, r)
		return
	}
	out := c.Borrow()
	out.AppendSym(key)
	out.AppendInt(seq)
	out.AppendStr(note)
	out.AppendFloat(float64(seq) / 4)
	out.AppendBool(seq%2 == 0)
	b.StampMeta(r, out)
	c.Send(out)
}

func (o *outOp) OnWatermark(c Collector, wm int64) error {
	if o.mode != "out-wm" {
		return nil
	}
	if o.wm == nil {
		o.wm = tuple.NewBatch(1)
		o.wm.Append(tuple.New(int64(0)))
	}
	o.emit(c, o.wm, 0, wm)
	return nil
}

// outSpout emits rows 0..n-1 with event time i+1, latency stamp i+1 ns,
// a trace context on every fifth row, and a watermark every 16 rows.
func outSpout(n int64) func() Spout {
	return func() Spout {
		i := int64(0)
		return SpoutFunc(func(c Collector) error {
			if i == n {
				return io.EOF
			}
			out := c.Borrow()
			out.AppendInt(i)
			i++
			out.Event, out.Ts = i, time.Unix(0, i)
			if i%5 == 0 {
				out.TraceID, out.TraceOrigin = uint64(i), 10*i
			}
			c.Send(out)
			if i%16 == 0 {
				c.EmitWatermark(i)
			}
			return nil
		})
	}
}

// logSink records every row it receives, and every watermark, in
// arrival order.
type logSink struct {
	mu  sync.Mutex
	log []string
}

func (s *logSink) Process(Collector, *tuple.Tuple) error { return nil }

func (s *logSink) ProcessBatch(_ Collector, b *tuple.Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var row tuple.Tuple
	for r := 0; r < b.Len(); r++ {
		b.CopyRowTo(r, &row)
		s.log = append(s.log, fmt.Sprintf("%v %v ts=%d ev=%d trace=%d/%d",
			&row, kindList(&row), row.Ts.UnixNano(), row.Event, row.TraceID, row.TraceOrigin))
	}
	return nil
}

func (s *logSink) OnWatermark(_ Collector, wm int64) error {
	s.mu.Lock()
	s.log = append(s.log, fmt.Sprintf("wm %d", wm))
	s.mu.Unlock()
	return nil
}

// kindList lists a row's field kinds.
func kindList(t *tuple.Tuple) []tuple.Kind {
	k := make([]tuple.Kind, t.Len())
	for i := range k {
		k[i] = t.Kind(i)
	}
	return k
}

// rows returns the sink's log without its watermarks.
func (s *logSink) rows() []string {
	var rows []string
	for _, l := range s.log {
		if !strings.HasPrefix(l, "wm ") {
			rows = append(rows, l)
		}
	}
	return rows
}

// outTopology wires spout -> op -> sink over the route, op emitting in
// the given mode; it returns the engine and the sink replicas in
// replica order. The sinks are logSinks unless alloc is set: then they
// discard what they get.
func outTopology(t *testing.T, rt outRoute, mode string, n int64, cfg Config, alloc bool) (*Engine, []*logSink) {
	t.Helper()
	g := graph.New("out")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}}))
	must(g.AddNode(&graph.Node{Name: "op", Selectivity: map[string]float64{"default": 2}}))
	must(g.AddNode(&graph.Node{Name: "sink", IsSink: true}))
	must(g.AddEdge(graph.Edge{From: "spout", To: "op", Stream: "default"}))
	must(g.AddEdge(graph.Edge{From: "op", To: "sink", Stream: "default", Partitioning: rt.part, KeyField: 0}))
	must(g.Validate())
	var sinks []*logSink
	e, err := New(Topology{
		App:    g,
		Spouts: map[string]func() Spout{"spout": outSpout(n)},
		Operators: map[string]func() Operator{
			"op": func() Operator { return &outOp{mode: mode} },
			"sink": func() Operator {
				if alloc {
					return batchSink{}
				}
				s := &logSink{}
				sinks = append(sinks, s)
				return s
			},
		},
		Replication: map[string]int{"sink": rt.repl},
	}, cfg)
	must(err)
	return e, sinks
}

// outConfig is the Out tests' engine configuration: small batches, so
// runs cross many batch boundaries, and no latency sampling, so the
// spout's own stamps travel.
func outConfig() Config {
	cfg := DefaultConfig()
	cfg.BatchSize = 8
	cfg.LatencySampleEvery = 0
	return cfg
}

// runOut runs the topology to the end and returns the sinks' logs.
func runOut(t *testing.T, rt outRoute, mode string, n int64) [][]string {
	t.Helper()
	e, sinks := outTopology(t, rt, mode, n, outConfig(), false)
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("%s %s: errors: %v", rt.name, mode, res.Errors)
	}
	logs := make([][]string, len(sinks))
	for i, s := range sinks {
		logs[i] = s.log
	}
	return logs
}

// TestOutMatchesSend: rows put through Out, alone or interleaved with
// Send rows, reach every consumer as the same rows sent through Send
// do — payload, metadata, order, and the watermarks between them.
func TestOutMatchesSend(t *testing.T) {
	noGoroutineLeak(t)
	const n = 500
	for _, rt := range outRoutes {
		t.Run(rt.name, func(t *testing.T) {
			want := runOut(t, rt, "send", n)
			total := 0
			for i, l := range want {
				rows := len((&logSink{log: l}).rows())
				if rows == 0 {
					t.Errorf("sink#%d got no rows: the route does not spread the keys", i)
				}
				total += rows
			}
			if total != 2*n*rt.fanTo {
				t.Fatalf("send run delivered %d rows, want %d", total, 2*n*rt.fanTo)
			}
			for _, mode := range []string{"out", "mixed"} {
				got := runOut(t, rt, mode, n)
				for i := range want {
					if len(got[i]) != len(want[i]) {
						t.Fatalf("%s: sink#%d got %d entries, send run %d", mode, i, len(got[i]), len(want[i]))
					}
					for k := range want[i] {
						if got[i][k] != want[i][k] {
							t.Fatalf("%s: sink#%d entry %d = %q, send run %q", mode, i, k, got[i][k], want[i][k])
						}
					}
				}
			}
		})
	}
}

// TestOutCountersExact: after a run whose operator emits through Out,
// processed and emitted are exact on every task.
func TestOutCountersExact(t *testing.T) {
	noGoroutineLeak(t)
	const n = 300
	for _, rt := range outRoutes {
		for _, mode := range []string{"out", "mixed"} {
			e, _ := outTopology(t, rt, mode, n, outConfig(), false)
			res, err := e.Run(0)
			if err != nil || len(res.Errors) != 0 {
				t.Fatalf("%s %s: %v %v", rt.name, mode, err, res.Errors)
			}
			want := map[string][2]uint64{ // processed, emitted
				"spout": {n, n},
				"op":    {n, 2 * n},
				"sink":  {uint64(2 * n * rt.fanTo), 0},
			}
			got := map[string][2]uint64{}
			for _, ts := range e.ProfileSnapshot().Tasks {
				g := got[ts.Op]
				got[ts.Op] = [2]uint64{g[0] + ts.Processed, g[1] + ts.Emitted}
			}
			for op, w := range want {
				if got[op] != w {
					t.Errorf("%s %s: %s processed/emitted = %v, want %v", rt.name, mode, op, got[op], w)
				}
			}
			if res.SinkTuples != uint64(2*n*rt.fanTo) {
				t.Errorf("%s %s: sink tuples = %d, want %d", rt.name, mode, res.SinkTuples, 2*n*rt.fanTo)
			}
		}
	}
}

// TestPunctuationFollowsOutRows: a watermark or a barrier that arrives
// behind a batch whose rows the operator put through Out — and, for the
// watermark, behind the row the operator puts from OnWatermark — leaves
// every edge behind all of those rows: on the last jumbo the edge
// carries, never ahead of a row.
func TestPunctuationFollowsOutRows(t *testing.T) {
	noGoroutineLeak(t)
	for _, rt := range outRoutes {
		for _, kind := range []tuple.PunctKind{tuple.PunctWatermark, tuple.PunctBarrier} {
			cfg := outConfig()
			cfg.Checkpoint = checkpoint.NewCoordinator(nil)
			e, _ := outTopology(t, rt, "out-wm", 0, cfg, false)
			spout, op := e.byOp["spout"][0], e.byOp["op"][0]
			in := tuple.NewBatch(5)
			for i := int64(0); i < 5; i++ {
				row := tuple.New(i)
				row.Event = i + 1
				in.Append(row)
			}
			p := tuple.Punct{Kind: kind, Event: 5}
			if kind == tuple.PunctBarrier {
				p.Event = int64(e.TriggerCheckpoint())
			}
			c := &collector{e: e, t: op}
			if err := e.consumeJumbo(op, c, tuple.Jumbo{Producer: spout.id, Batch: in, Punct: p}); err != nil {
				t.Fatal(err)
			}
			rows := 0
			for _, oe := range op.outList {
				var js []tuple.Jumbo
				for {
					j, ok, _ := oe.consumer.in.TryGet()
					if !ok {
						break
					}
					js = append(js, j)
				}
				if len(js) == 0 || js[len(js)-1].Punct.Kind != kind {
					t.Fatalf("%s %v: edge to %s did not end with the punctuation: %v", rt.name, kind, oe.consumer.label, js)
				}
				for _, j := range js[:len(js)-1] {
					if j.Punct.Kind != tuple.PunctNone {
						t.Fatalf("%s %v: edge to %s carried the punctuation before its last jumbo", rt.name, kind, oe.consumer.label)
					}
				}
				for _, j := range js {
					rows += j.Len()
				}
			}
			want := 10 * rt.fanTo
			if kind == tuple.PunctWatermark {
				want += rt.fanTo // the row OnWatermark put
			}
			if rows != want {
				t.Errorf("%s %v: %d rows ahead of the punctuation, want %d", rt.name, kind, rows, want)
			}
		}
	}
}

// TestOutFlushesFullBatchOnReturn: when ProcessBatch returns, no edge
// is left holding a full batch of put rows for the linger timer; the
// rest stay open until the next call, a punctuation or the linger.
func TestOutFlushesFullBatchOnReturn(t *testing.T) {
	noGoroutineLeak(t)
	for _, rt := range outRoutes {
		e, _ := outTopology(t, rt, "out", 0, outConfig(), false)
		spout, op := e.byOp["spout"][0], e.byOp["op"][0]
		// 24 put rows: the third batch of 8 fills on the call's last row.
		in := tuple.NewBatch(12)
		for i := int64(0); i < 12; i++ {
			in.Append(tuple.New(i))
		}
		c := &collector{e: e, t: op}
		if err := e.consumeJumbo(op, c, tuple.Jumbo{Producer: spout.id, Batch: in}); err != nil {
			t.Fatal(err)
		}
		rows := 0
		for _, oe := range op.outList {
			for {
				j, ok, _ := oe.consumer.in.TryGet()
				if !ok {
					break
				}
				if j.Len() != e.cfg.BatchSize {
					t.Errorf("%s: a partial batch of %d rows left before its time", rt.name, j.Len())
				}
				rows += j.Len()
			}
			if oe.batch != nil {
				if oe.batch.Full() {
					t.Errorf("%s: edge to %s left holding a full batch", rt.name, oe.consumer.label)
				}
				rows += oe.batch.Len()
			}
		}
		if want := 24 * rt.fanTo; rows != want {
			t.Errorf("%s: %d rows queued or open, want %d", rt.name, rows, want)
		}
	}
}

// layoutOp puts a (symbol, int) row and then an int-only row through
// Out: the second does not match the layout the first fixed.
type layoutOp struct{ one OneRow }

func (o *layoutOp) Process(c Collector, t *tuple.Tuple) error { return o.one.Process(o, c, t) }

func (o *layoutOp) ProcessBatch(c Collector, b *tuple.Batch) error {
	ob := c.Out(tuple.DefaultStreamID)
	ob.PutSym(outKeys[0])
	ob.PutInt(1)
	ob.EndRowFrom(b, 0)
	ob = c.Out(tuple.DefaultStreamID)
	ob.PutInt(2)
	ob.EndRowFrom(b, 0)
	return nil
}

// rowKindSink fails on any row that is not (symbol, int).
func rowKindSink() Operator {
	return OperatorFunc(func(_ Collector, t *tuple.Tuple) error {
		if t.Len() != 2 || t.Kind(0) != tuple.KindSym || t.Kind(1) != tuple.KindInt {
			return fmt.Errorf("sink got a mis-typed row %v", t)
		}
		return nil
	})
}

// runFailingOut runs spout -> op -> sink over the route with the given
// operator and returns the run's errors.
func runFailingOut(t *testing.T, rt outRoute, op func() Operator, schemas map[string]map[string]*tuple.Schema, keyField int) []error {
	t.Helper()
	g := graph.New("out-fail")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "op", Selectivity: map[string]float64{"default": 2}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "op", Stream: "default"})
	g.AddEdge(graph.Edge{From: "op", To: "sink", Stream: "default", Partitioning: rt.part, KeyField: keyField})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := New(Topology{
		App:         g,
		Spouts:      map[string]func() Spout{"spout": boundedSpoutEOF(100)},
		Operators:   map[string]func() Operator{"op": op, "sink": rowKindSink},
		Replication: map[string]int{"sink": rt.repl},
		Schemas:     schemas,
	}, outConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return res.Errors
}

// TestOutLayoutMismatchFailsTask: a put row whose kinds differ from the
// layout an earlier put row fixed fails the task with an error naming
// the task and the stream, and never reaches a consumer.
func TestOutLayoutMismatchFailsTask(t *testing.T) {
	noGoroutineLeak(t)
	for _, rt := range outRoutes {
		errs := runFailingOut(t, rt, func() Operator { return &layoutOp{} }, nil, 0)
		if len(errs) != 1 {
			t.Fatalf("%s: errors = %v, want exactly the layout failure", rt.name, errs)
		}
		msg := errs[0].Error()
		for _, want := range []string{"op#0", `"default"`, "does not match"} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: error %q does not name %s", rt.name, msg, want)
			}
		}
	}
}

// TestOutSchemaViolationFailsAtSource: put rows that violate the
// route's declared schema, or are too narrow for its fields key, fail
// the emitting task — not a downstream consumer.
func TestOutSchemaViolationFailsAtSource(t *testing.T) {
	noGoroutineLeak(t)
	schemas := map[string]map[string]*tuple.Schema{
		"op": {"default": tuple.NewSchema(tuple.SymField("key"), tuple.IntField("seq"))},
	}
	for _, rt := range outRoutes {
		errs := runFailingOut(t, rt, func() Operator { return &outOp{mode: "out"} }, schemas, 0)
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), "op#0") || !strings.Contains(errs[0].Error(), "schema") {
			t.Errorf("%s: errors = %v, want one schema failure at op#0", rt.name, errs)
		}
		if rt.part != graph.Fields {
			continue
		}
		errs = runFailingOut(t, rt, func() Operator { return &outOp{mode: "out"} }, nil, 6)
		var re *RouteError
		if len(errs) != 1 || !errors.As(errs[0], &re) || re.Task != "op#0" {
			t.Errorf("%s: errors = %v, want one RouteError at op#0", rt.name, errs)
		}
	}
}

// TestOutUnsubscribedStreamDrops: rows put on a stream nobody
// subscribes to are counted as emitted and dropped, as Send drops them.
func TestOutUnsubscribedStreamDrops(t *testing.T) {
	c, src, drain := outAllocHarness(t, outRoutes[0])
	nobody := tuple.Intern("out-unsubscribed")
	for k := int64(0); k < 100; k++ {
		b := c.Out(nobody)
		b.PutInt(k)
		b.EndRowFrom(src, 0)
	}
	c.settle()
	drain()
	if c.fail != nil || c.emitted != 100 || c.e.sink.Load() != 0 {
		t.Fatalf("fail %v, emitted %d, delivered %d; want no failure, 100 emitted, none delivered", c.fail, c.emitted, c.e.sink.Load())
	}
}

// outAllocHarness is allocHarness with an operator task as the
// producer: spout -> op -> sink over the route, the sinks drained
// inline. It returns op's collector, a one-row input batch to put rows
// from, and the drain.
func outAllocHarness(t *testing.T, rt outRoute) (*collector, *tuple.Batch, func()) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.LatencySampleEvery = 0
	e, _ := outTopology(t, rt, "out", 0, cfg, true)
	src := tuple.NewBatch(1)
	row := tuple.New(int64(7))
	row.Event = 7
	src.Append(row)
	return &collector{e: e, t: e.byOp["op"][0]}, src, inlineDrain(e, e.byOp["sink"])
}

// TestOutAllocFree: putting rows through Out — into the edge's own
// batch or through the staging batch — allocates nothing in steady
// state.
func TestOutAllocFree(t *testing.T) {
	noGoroutineLeak(t)
	for _, rt := range outRoutes {
		c, src, drain := outAllocHarness(t, rt)
		emit := func() {
			for k := int64(0); k < 10; k++ {
				b := c.Out(tuple.DefaultStreamID)
				b.PutSym(outKeys[k%int64(len(outKeys))])
				b.PutInt(k)
				b.PutStr("the quick brown fox")
				b.EndRowFrom(src, 0)
			}
			c.settle()
			drain()
		}
		for i := 0; i < 1000; i++ {
			emit()
		}
		if avg := testing.AllocsPerRun(3000, emit); avg > 0 {
			t.Errorf("%s: Out allocates %.3f per 10 rows, want 0", rt.name, avg)
		}
		if c.fail != nil {
			t.Fatal(c.fail)
		}
		if c.emitted != 10*4001 {
			t.Errorf("%s: emitted = %d after %d rows", rt.name, c.emitted, 10*4001)
		}
	}
}
