package engine

// Send as an adapter over Out: a row of another layout starts a fresh
// batch, Send and Out rows of one layout share batches, and a spout's
// rows — which stay open across its Next calls — still precede its
// punctuation, leave as soon as a batch fills, and may be put through
// Out directly.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"briskstream/internal/checkpoint"
	"briskstream/internal/graph"
	"briskstream/internal/tuple"
)

// sendLayouts are the three layouts layoutSpout alternates; every one
// keys on an int64 in field 0.
var sendLayouts = [][]tuple.Kind{
	{tuple.KindInt},
	{tuple.KindInt, tuple.KindStr},
	{tuple.KindInt, tuple.KindFloat, tuple.KindSym},
}

// layoutOf is the layout of row i: it changes on every row in the
// first half of a run and every ten rows in the second.
func layoutOf(i, n int64) int {
	if i < n/2 {
		return int(i % 3)
	}
	return int(i / 10 % 3)
}

var layoutSym = tuple.InternSym("layout-sym")

// layoutSpout Sends rows 0..n-1, one per Next, in the layouts layoutOf
// gives them.
func layoutSpout(n int64) func() Spout {
	return func() Spout {
		i := int64(0)
		return SpoutFunc(func(c Collector) error {
			if i == n {
				return ioEOF
			}
			out := c.Borrow()
			out.AppendInt(i)
			switch layoutOf(i, n) {
			case 1:
				out.AppendStr(fmt.Sprint("s", i))
			case 2:
				out.AppendFloat(float64(i) / 2)
				out.AppendSym(layoutSym)
			}
			i++
			c.Send(out)
			return nil
		})
	}
}

// layoutSink records the row numbers it receives, in arrival order, and
// every row whose batch's layout is not the one layoutOf gave it.
type layoutSink struct {
	n    int64
	seqs []int64
	bad  []string
}

func (s *layoutSink) Process(Collector, *tuple.Tuple) error { return nil }

func (s *layoutSink) ProcessBatch(_ Collector, b *tuple.Batch) error {
	for r := 0; r < b.Len(); r++ {
		i := b.Int(0, r)
		s.seqs = append(s.seqs, i)
		want := sendLayouts[layoutOf(i, s.n)]
		ok := b.Cols() == len(want)
		for c := 0; ok && c < len(want); c++ {
			ok = b.Kind(c) == want[c]
		}
		if ok && len(want) == 2 {
			ok = b.Str(1, r) == fmt.Sprint("s", i)
		}
		if !ok {
			s.bad = append(s.bad, fmt.Sprintf("row %d in a batch of %d columns", i, b.Cols()))
		}
	}
	return nil
}

// spoutTopology wires spout -> sink over the partitioning into repl
// sink replicas, keyed on field 0.
func spoutTopology(t *testing.T, spout func() Spout, sink func() Operator, part graph.Partitioning, repl int, cfg Config) *Engine {
	t.Helper()
	g := graph.New("spout-sink")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "sink", Stream: "default", Partitioning: part, KeyField: 0})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := New(Topology{
		App:         g,
		Spouts:      map[string]func() Spout{"spout": spout},
		Operators:   map[string]func() Operator{"sink": sink},
		Replication: map[string]int{"sink": repl},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSendLayoutChangeStartsFreshBatch: a Send stream without a schema
// that keeps changing arity and kinds, over one edge and staged into
// four fields replicas, fails no task; every row arrives, in emission
// order per consumer, in a batch of its own layout.
func TestSendLayoutChangeStartsFreshBatch(t *testing.T) {
	noGoroutineLeak(t)
	const n = 2000
	for _, rt := range []struct {
		name string
		part graph.Partitioning
		repl int
	}{{"shuffle-c1", graph.Shuffle, 1}, {"fields-c4", graph.Fields, 4}} {
		var sinks []*layoutSink
		cfg := DefaultConfig()
		cfg.BatchSize = 8
		e := spoutTopology(t, layoutSpout(n), func() Operator {
			s := &layoutSink{n: n}
			sinks = append(sinks, s)
			return s
		}, rt.part, rt.repl, cfg)
		res, err := e.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Errors) != 0 {
			t.Fatalf("%s: errors: %v", rt.name, res.Errors)
		}
		total := 0
		for i, s := range sinks {
			if len(s.bad) != 0 {
				t.Errorf("%s: sink#%d got rows in a batch of another layout: %v", rt.name, i, s.bad[:min(len(s.bad), 3)])
			}
			for k := 1; k < len(s.seqs); k++ {
				if s.seqs[k] <= s.seqs[k-1] {
					t.Fatalf("%s: sink#%d got row %d after row %d", rt.name, i, s.seqs[k], s.seqs[k-1])
				}
			}
			total += len(s.seqs)
		}
		if total != n || res.SinkTuples != n {
			t.Errorf("%s: sinks got %d rows (SinkTuples %d), want %d", rt.name, total, res.SinkTuples, n)
		}
	}
}

// TestSendAndOutShareBatches: Send and Out rows of one layout,
// alternating on a one-edge stream and starting with a Send, fill the
// same batches: the edge puts ⌈n / BatchSize⌉ jumbos, not one per
// switch between the two. The scratch row once held a wider row, so
// its kinds past the arity are stale; they must not split the layout.
func TestSendAndOutShareBatches(t *testing.T) {
	noGoroutineLeak(t)
	const n = 1000
	c, src, drain := outAllocHarness(t, outRoutes[0])
	wide := c.Borrow()
	for k := int64(0); k < 4; k++ {
		wide.AppendInt(k)
	}
	wide.Release()
	for i := int64(0); i < n; i++ {
		key := outKeys[i%int64(len(outKeys))]
		if i%2 == 0 {
			out := c.Borrow()
			out.AppendSym(key)
			out.AppendInt(i)
			c.Send(out)
			continue
		}
		b := c.Out(tuple.DefaultStreamID)
		b.PutSym(key)
		b.PutInt(i)
		b.EndRowFrom(src, 0)
		if i%10 == 9 {
			c.settle() // as after each operator call: the next Out reopens
			drain()
		}
	}
	c.settle()
	c.e.flushAll(c.t)
	if c.fail != nil {
		t.Fatal(c.fail)
	}
	bs := c.e.cfg.BatchSize
	if puts, _ := c.e.QueueStats(); puts != uint64((n+bs-1)/bs) {
		t.Errorf("%d jumbos for %d rows, want %d", puts, n, (n+bs-1)/bs)
	}
	drain()
	if got := c.e.sink.Load(); got != n {
		t.Errorf("sink got %d rows, want %d", got, n)
	}
}

// TestSpoutRowsPrecedePunctuation: a spout's rows, open across its Next
// calls, reach every edge ahead of the watermark and the checkpoint
// barrier it emits after them, and a row it emits after the barrier
// arrives behind it — over one edge and staged into four replicas.
func TestSpoutRowsPrecedePunctuation(t *testing.T) {
	noGoroutineLeak(t)
	for _, consumers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Checkpoint = checkpoint.NewCoordinator(nil)
		c, _ := allocHarness(t, cfg, consumers, graph.Fields, func() Operator { return batchSink{} })
		e, tk := c.e, c.t
		// Rows 0..4, the watermark after row 4, row 5 and the barrier
		// after it, then row 6.
		i := int64(0)
		tk.spout = SpoutFunc(func(c Collector) error {
			sendInt(c, i)
			if i++; i == 5 {
				c.EmitWatermark(5)
			}
			return nil
		})
		for i < 5 {
			if err := e.stepSpout(tk, c); err != nil {
				t.Fatal(err)
			}
		}
		if e.TriggerCheckpoint() == 0 {
			t.Fatal("checkpoint not triggered")
		}
		for k := 0; k < 2; k++ {
			if err := e.stepSpout(tk, c); err != nil {
				t.Fatal(err)
			}
		}
		c.settle()
		e.flushAll(tk)

		var rows []int64
		for _, oe := range tk.outList {
			var seen []string
			for {
				j, ok, _ := oe.consumer.in.TryGet()
				if !ok {
					break
				}
				for r := 0; r < j.Len(); r++ {
					v := j.Batch.Int(0, r)
					rows = append(rows, v)
					seen = append(seen, fmt.Sprint(v))
				}
				switch j.Punct.Kind {
				case tuple.PunctWatermark:
					seen = append(seen, "wm")
				case tuple.PunctBarrier:
					seen = append(seen, "barrier")
				}
			}
			// Before the watermark only rows 0..4, between it and the
			// barrier only row 5, after it only row 6.
			phase := 0
			for _, s := range seen {
				switch s {
				case "wm", "barrier":
					phase++
				case "0", "1", "2", "3", "4":
					if phase != 0 {
						t.Errorf("c%d: edge to %s: row %s after a punctuation: %v", consumers, oe.consumer.label, s, seen)
					}
				case "5":
					if phase != 1 {
						t.Errorf("c%d: edge to %s: row 5 not between the watermark and the barrier: %v", consumers, oe.consumer.label, seen)
					}
				case "6":
					if phase != 2 {
						t.Errorf("c%d: edge to %s: row 6 ahead of the barrier: %v", consumers, oe.consumer.label, seen)
					}
				}
			}
			if phase != 2 {
				t.Errorf("c%d: edge to %s did not carry both punctuations: %v", consumers, oe.consumer.label, seen)
			}
		}
		if len(rows) != 7 {
			t.Errorf("c%d: edges carried rows %v, want 0..6 once each", consumers, rows)
		}
	}
}

// TestSpoutFullBatchLeavesWhileNextBlocks: a spout that emits one row
// per Next and then blocks in Next has the batch it filled delivered
// meanwhile — no linger timer, no later Next and no punctuation needed.
func TestSpoutFullBatchLeavesWhileNextBlocks(t *testing.T) {
	noGoroutineLeak(t)
	cfg := DefaultConfig()
	cfg.BatchSize = 8
	cfg.Linger = 0
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	e := spoutTopology(t, func() Spout {
		i := 0
		return SpoutFunc(func(c Collector) error {
			if i == cfg.BatchSize {
				<-release
				return ioEOF
			}
			sendInt(c, int64(i))
			i++
			return nil
		})
	}, func() Operator { return batchSink{} }, graph.Shuffle, 1, cfg)
	done := make(chan *Result, 1)
	go func() {
		res, err := e.Run(0)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	if !waitFor(5*time.Second, func() bool { return e.sink.Load() == uint64(cfg.BatchSize) }) {
		t.Errorf("sink got %d rows while the spout blocked, want its full batch of %d", e.sink.Load(), cfg.BatchSize)
	}
	unblock()
	if res := <-done; res != nil && len(res.Errors) != 0 {
		t.Errorf("errors: %v", res.Errors)
	}
}

// seqSink records the int64 in field 0 of every row it receives, in
// arrival order.
type seqSink struct {
	mu   sync.Mutex
	seqs []int64
}

func (s *seqSink) Process(Collector, *tuple.Tuple) error { return nil }

func (s *seqSink) ProcessBatch(_ Collector, b *tuple.Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for r := 0; r < b.Len(); r++ {
		s.seqs = append(s.seqs, b.Int(0, r))
	}
	return nil
}

// TestSpoutRowsSurviveLingerFlush: a slow spout's open batch is flushed
// by the linger timer between its Next calls, and the rows it emits
// after that go into a fresh batch: every row arrives once, in order.
func TestSpoutRowsSurviveLingerFlush(t *testing.T) {
	noGoroutineLeak(t)
	const n = 600
	cfg := DefaultConfig()
	cfg.Linger = time.Millisecond
	sink := &seqSink{}
	e := spoutTopology(t, func() Spout {
		i := int64(0)
		return SpoutFunc(func(c Collector) error {
			if i == n {
				return ioEOF
			}
			sendInt(c, i)
			i++
			time.Sleep(100 * time.Microsecond)
			return nil
		})
	}, func() Operator { return sink }, graph.Shuffle, 1, cfg)
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if len(sink.seqs) != n {
		t.Fatalf("sink got %d rows, want %d", len(sink.seqs), n)
	}
	for k, v := range sink.seqs {
		if v != int64(k) {
			t.Fatalf("row %d arrived as the %d-th", v, k)
		}
	}
}

// TestSpoutOutPutTuple: a spout may write through Out — here
// Out(s).PutTuple alternating with Send, one row per Next — and every
// row is delivered and counted as the spout's, over one edge and
// staged into four replicas.
func TestSpoutOutPutTuple(t *testing.T) {
	noGoroutineLeak(t)
	const n = 1000
	for _, repl := range []int{1, 4} {
		e := spoutTopology(t, func() Spout {
			i := int64(0)
			return SpoutFunc(func(c Collector) error {
				if i == n {
					return ioEOF
				}
				if i%2 == 0 {
					sendInt(c, i)
				} else {
					c.Out(tuple.DefaultStreamID).PutTuple(tuple.New(i))
				}
				i++
				return nil
			})
		}, func() Operator { return batchSink{} }, graph.Fields, repl, DefaultConfig())
		res, err := e.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Errors) != 0 || res.SinkTuples != n || res.Processed["spout"] != n {
			t.Errorf("c%d: errors %v, sink %d, spout processed %d; want none, %d, %d",
				repl, res.Errors, res.SinkTuples, res.Processed["spout"], n, n)
		}
	}
}
