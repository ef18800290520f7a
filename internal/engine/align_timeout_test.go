package engine

// Regression coverage for Config.AlignTimeout, the barrier-alignment
// skew bound: a fan-in task whose slow producer edge withholds its
// barrier must abandon the checkpoint attempt at the deadline and
// replay the jumbos the alignment parked — bounding parked memory by
// the timeout — without dropping a single data tuple.

import (
	"io"
	"testing"
	"time"

	"briskstream/internal/checkpoint"
	"briskstream/internal/graph"
	"briskstream/internal/tuple"
)

// pacedSpout emits 1..limit, sleeping delay before each tuple.
type pacedSpout struct {
	n, limit int64
	delay    time.Duration
}

func (s *pacedSpout) Next(c Collector) error {
	if s.n >= s.limit {
		return io.EOF
	}
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	s.n++
	out := c.Borrow()
	out.AppendInt(s.n)
	c.Send(out)
	return nil
}

func TestAlignTimeoutAbandonsSkewedAlignmentWithoutLoss(t *testing.T) {
	noGoroutineLeak(t)
	g := graph.New("align-timeout")
	g.AddNode(&graph.Node{Name: "fast", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "slow", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "merge", Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "fast", To: "merge", Stream: "default"})
	g.AddEdge(graph.Edge{From: "slow", To: "merge", Stream: "default"})
	g.AddEdge(graph.Edge{From: "merge", To: "sink", Stream: "default"})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	co := checkpoint.NewCoordinator(nil)
	cfg := DefaultConfig()
	cfg.Checkpoint = co
	cfg.CheckpointInterval = 30 * time.Millisecond
	cfg.AlignTimeout = 10 * time.Millisecond
	topo := Topology{
		App: g,
		Spouts: map[string]func() Spout{
			// The fast source outlives the run; the slow one's barriers lag
			// each checkpoint request by up to its inter-tuple sleep, far
			// past the align timeout.
			"fast": func() Spout { return &pacedSpout{limit: 1 << 40} },
			"slow": func() Spout { return &pacedSpout{limit: 1 << 40, delay: 150 * time.Millisecond} },
		},
		Operators: map[string]func() Operator{
			"merge": func() Operator {
				return OperatorFunc(func(c Collector, in *tuple.Tuple) error {
					forwardTuple(c, in)
					return nil
				})
			},
			"sink": func() Operator {
				return OperatorFunc(func(c Collector, in *tuple.Tuple) error { return nil })
			},
		},
	}
	e, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(500 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if res.AlignTimeouts == 0 {
		t.Fatal("no alignment timed out despite a 150ms-skewed producer and a 10ms bound")
	}
	// The periodic trigger waits for the checkpoint in flight, so a task
	// giving up must take that checkpoint out of flight: otherwise the
	// first abandoned attempt would be the last checkpoint ever tried.
	if res.AlignTimeouts < 2 {
		t.Fatalf("%d alignment timed out in 500ms at a 30ms interval: the trigger wedged on the abandoned checkpoint", res.AlignTimeouts)
	}
	// Abandoning an alignment drops only the checkpoint attempt, never
	// data: everything both sources emitted flows through the fan-in
	// (parked batches replayed) and reaches the sink.
	emitted := res.Processed["fast"] + res.Processed["slow"]
	if res.Processed["merge"] != emitted {
		t.Fatalf("merge processed %d of %d emitted tuples (parked input lost?)",
			res.Processed["merge"], emitted)
	}
	if res.SinkTuples != res.Processed["merge"] {
		t.Fatalf("sink received %d of %d forwarded tuples", res.SinkTuples, res.Processed["merge"])
	}
}

// TestAlignTimeoutStaleTimerIsNoOp: a timeout armed for an alignment
// that completed in time must not disturb the next alignment
// (completing an alignment clears its deadline).
func TestAlignTimeoutStaleTimerIsNoOp(t *testing.T) {
	g := graph.New("align-timeout-stale")
	g.AddNode(&graph.Node{Name: "a", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "b", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "a", To: "sink", Stream: "default"})
	g.AddEdge(graph.Edge{From: "b", To: "sink", Stream: "default"})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	co := checkpoint.NewCoordinator(nil)
	cfg := DefaultConfig()
	cfg.Checkpoint = co
	cfg.CheckpointInterval = 5 * time.Millisecond
	cfg.AlignTimeout = 200 * time.Millisecond // generous: alignments complete in time
	topo := Topology{
		App: g,
		Spouts: map[string]func() Spout{
			// Both sources are prompt, so every alignment completes well
			// inside the bound and every armed timer goes stale.
			"a": func() Spout { return &pacedSpout{limit: 1 << 40, delay: time.Millisecond} },
			"b": func() Spout { return &pacedSpout{limit: 1 << 40, delay: time.Millisecond} },
		},
		Operators: map[string]func() Operator{
			"sink": func() Operator {
				return OperatorFunc(func(c Collector, in *tuple.Tuple) error { return nil })
			},
		},
	}
	e, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if res.AlignTimeouts != 0 {
		t.Fatalf("%d alignments timed out under a generous bound", res.AlignTimeouts)
	}
	if co.Completed() == 0 {
		t.Fatal("no checkpoint completed despite prompt sources")
	}
	if res.SinkTuples != res.Processed["a"]+res.Processed["b"] {
		t.Fatalf("sink received %d of %d tuples", res.SinkTuples, res.Processed["a"]+res.Processed["b"])
	}
}

// TestAlignDeadlineLivesWithItsAlignment: the task's alignment deadline
// is set when an alignment over several live edges starts and cleared
// when it completes or is abandoned, so no deadline outlives its
// alignment.
func TestAlignDeadlineLivesWithItsAlignment(t *testing.T) {
	g := graph.New("align-deadline")
	g.AddNode(&graph.Node{Name: "a", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "b", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "a", To: "sink", Stream: "default"})
	g.AddEdge(graph.Edge{From: "b", To: "sink", Stream: "default"})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Checkpoint = checkpoint.NewCoordinator(nil)
	cfg.AlignTimeout = time.Hour
	e, err := New(Topology{
		App: g,
		Spouts: map[string]func() Spout{
			"a": func() Spout { return &pacedSpout{} },
			"b": func() Spout { return &pacedSpout{} },
		},
		Operators: map[string]func() Operator{
			"sink": func() Operator {
				return OperatorFunc(func(c Collector, in *tuple.Tuple) error { return nil })
			},
		},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := e.byOp["sink"][0]
	c := &collector{e: e, t: sink}
	a, b := e.byOp["a"][0].id, e.byOp["b"][0].id
	barrier := func(id uint64, producer int) {
		t.Helper()
		if err := e.handleBarrier(sink, c, id, producer); err != nil {
			t.Fatal(err)
		}
	}

	id := e.TriggerCheckpoint()
	barrier(id, a)
	if sink.alignAt == 0 {
		t.Fatal("alignment started without a deadline")
	}
	barrier(id, b)
	if sink.alignID != 0 || sink.alignAt != 0 {
		t.Fatalf("completed alignment left alignID %d, alignAt %d", sink.alignID, sink.alignAt)
	}
	barrier(e.TriggerCheckpoint(), a)
	if sink.alignAt == 0 {
		t.Fatal("second alignment started without a deadline")
	}
	if err := e.drainAlignment(sink, c); err != nil {
		t.Fatal(err)
	}
	if sink.alignID != 0 || sink.alignAt != 0 {
		t.Fatalf("abandoned alignment left alignID %d, alignAt %d", sink.alignID, sink.alignAt)
	}
}
