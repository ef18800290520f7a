package engine

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"briskstream/internal/graph"
	"briskstream/internal/tuple"
)

// pipelineGraph builds spout -> double -> sink where double emits every
// input twice.
func pipelineGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("pipe")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}}))
	must(g.AddNode(&graph.Node{Name: "double", Selectivity: map[string]float64{"default": 2}}))
	must(g.AddNode(&graph.Node{Name: "sink", IsSink: true}))
	must(g.AddEdge(graph.Edge{From: "spout", To: "double", Stream: "default"}))
	must(g.AddEdge(graph.Edge{From: "double", To: "sink", Stream: "default"}))
	must(g.Validate())
	return g
}

var ioEOF = io.EOF

// forwardTuple re-emits t's typed payload on the default stream (the
// test-operator forwarding shape).
func forwardTuple(c Collector, t *tuple.Tuple) {
	out := c.Borrow()
	out.CopyValuesFrom(t)
	c.Send(out)
}

func doubler() Operator {
	return OperatorFunc(func(c Collector, t *tuple.Tuple) error {
		forwardTuple(c, t)
		forwardTuple(c, t)
		return nil
	})
}

func passthrough() Operator {
	return OperatorFunc(func(c Collector, t *tuple.Tuple) error {
		forwardTuple(c, t)
		return nil
	})
}

func sinkOp() Operator {
	return OperatorFunc(func(c Collector, t *tuple.Tuple) error { return nil })
}

func TestPipelineCountsExact(t *testing.T) {
	topo := Topology{
		App:       pipelineGraph(t),
		Spouts:    map[string]func() Spout{"spout": boundedSpoutEOF(1000)},
		Operators: map[string]func() Operator{"double": doubler, "sink": sinkOp},
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
	if res.SinkTuples != 2000 {
		t.Fatalf("sink tuples = %d, want 2000 (selectivity 2)", res.SinkTuples)
	}
	if res.Processed["spout"] != 1000 {
		t.Errorf("spout processed = %d", res.Processed["spout"])
	}
	if res.Processed["double"] != 1000 {
		t.Errorf("double processed = %d", res.Processed["double"])
	}
}

// sendInt emits one integer field on the default stream.
func sendInt(c Collector, v int64) {
	out := c.Borrow()
	out.AppendInt(v)
	c.Send(out)
}

// boundedSpoutEOF emits n tuples then returns io.EOF.
func boundedSpoutEOF(n int) func() Spout {
	return func() Spout {
		i := 0
		return SpoutFunc(func(c Collector) error {
			if i >= n {
				return ioEOF
			}
			sendInt(c, int64(i))
			i++
			return nil
		})
	}
}

func TestReplicatedOperatorsConserveTuples(t *testing.T) {
	topo := Topology{
		App:         pipelineGraph(t),
		Spouts:      map[string]func() Spout{"spout": boundedSpoutEOF(3000)},
		Operators:   map[string]func() Operator{"double": doubler, "sink": sinkOp},
		Replication: map[string]int{"double": 4, "sink": 2},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SinkTuples != 6000 {
		t.Fatalf("sink tuples = %d, want 6000", res.SinkTuples)
	}
}

func TestFieldsPartitioningRoutesByKey(t *testing.T) {
	g := graph.New("fields")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "count", Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "count", Stream: "default", Partitioning: graph.Fields, KeyField: 0})
	g.AddEdge(graph.Edge{From: "count", To: "sink", Stream: "default"})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	// Each replica tracks the set of keys it saw; sets must be disjoint.
	var mu [8]atomic.Pointer[map[string]bool]
	var replicaSeq atomic.Int32
	counter := func() Operator {
		idx := int(replicaSeq.Add(1)) - 1
		seen := map[string]bool{}
		p := &seen
		mu[idx].Store(p)
		return OperatorFunc(func(c Collector, t *tuple.Tuple) error {
			// Str views die with the input row; own the key bytes.
			seen[strings.Clone(t.Str(0))] = true
			forwardTuple(c, t)
			return nil
		})
	}

	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	mkSpout := func() Spout {
		i := 0
		return SpoutFunc(func(c Collector) error {
			if i >= 600 {
				return ioEOF
			}
			out := c.Borrow()
			out.AppendStr(words[i%len(words)])
			c.Send(out)
			i++
			return nil
		})
	}
	topo := Topology{
		App:         g,
		Spouts:      map[string]func() Spout{"spout": mkSpout},
		Operators:   map[string]func() Operator{"count": counter, "sink": sinkOp},
		Replication: map[string]int{"count": 3},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SinkTuples != 600 {
		t.Fatalf("sink tuples = %d", res.SinkTuples)
	}
	// Key sets of distinct replicas must be disjoint.
	union := map[string]int{}
	for i := 0; i < 3; i++ {
		if p := mu[i].Load(); p != nil {
			for w := range *p {
				union[w]++
			}
		}
	}
	for w, n := range union {
		if n > 1 {
			t.Errorf("word %q seen by %d replicas; fields partitioning must pin keys", w, n)
		}
	}
	if len(union) != len(words) {
		t.Errorf("union covers %d of %d words", len(union), len(words))
	}
}

func TestBroadcastDeliversToAllReplicas(t *testing.T) {
	g := graph.New("bcast")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "mirror", Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "mirror", Stream: "default", Partitioning: graph.Broadcast})
	g.AddEdge(graph.Edge{From: "mirror", To: "sink", Stream: "default"})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	topo := Topology{
		App:         g,
		Spouts:      map[string]func() Spout{"spout": boundedSpoutEOF(500)},
		Operators:   map[string]func() Operator{"mirror": passthrough, "sink": sinkOp},
		Replication: map[string]int{"mirror": 3},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	// Broadcast to 3 replicas: the sink sees 3x the spout count.
	if res.SinkTuples != 1500 {
		t.Fatalf("sink tuples = %d, want 1500", res.SinkTuples)
	}
}

func TestDurationBoundedRunStops(t *testing.T) {
	infinite := func() Spout {
		return SpoutFunc(func(c Collector) error {
			sendInt(c, 1)
			return nil
		})
	}
	topo := Topology{
		App:       pipelineGraph(t),
		Spouts:    map[string]func() Spout{"spout": infinite},
		Operators: map[string]func() Operator{"double": doubler, "sink": sinkOp},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Result, 1)
	go func() {
		res, _ := e.Run(100 * time.Millisecond)
		done <- res
	}()
	select {
	case res := <-done:
		if res.SinkTuples == 0 {
			t.Error("no tuples processed in bounded run")
		}
		if res.Throughput <= 0 {
			t.Error("throughput not computed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("bounded run did not stop")
	}
}

func TestEndToEndLatencyMeasured(t *testing.T) {
	topo := Topology{
		App:       pipelineGraph(t),
		Spouts:    map[string]func() Spout{"spout": boundedSpoutEOF(2000)},
		Operators: map[string]func() Operator{"double": doubler, "sink": sinkOp},
	}
	cfg := DefaultConfig()
	cfg.LatencySampleEvery = 10
	e, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count == 0 {
		t.Fatal("no latency samples recorded")
	}
	if res.Latency.Quantile(0.5) <= 0 {
		t.Error("median latency must be positive")
	}
}

func TestOperatorErrorStopsPipeline(t *testing.T) {
	failing := func() Operator {
		n := 0
		return OperatorFunc(func(c Collector, t *tuple.Tuple) error {
			n++
			if n > 10 {
				return errors.New("synthetic failure")
			}
			forwardTuple(c, t)
			return nil
		})
	}
	topo := Topology{
		App:       pipelineGraph(t),
		Spouts:    map[string]func() Spout{"spout": boundedSpoutEOF(100000)},
		Operators: map[string]func() Operator{"double": failing, "sink": sinkOp},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Result, 1)
	go func() { res, _ := e.Run(0); done <- res }()
	select {
	case res := <-done:
		if len(res.Errors) == 0 {
			t.Fatal("operator error not reported")
		}
		if !strings.Contains(res.Errors[0].Error(), "synthetic failure") {
			t.Errorf("unexpected error: %v", res.Errors[0])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline did not shut down after operator error")
	}
}

// noGoroutineLeak records the goroutine count now and, when the test
// ends, polls until the count is back to it: once Run has returned,
// every goroutine the run started (task drivers, the checkpoint
// trigger) must be gone.
func noGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		if !waitFor(5*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
			buf := make([]byte, 1<<20)
			t.Errorf("%d goroutines running after Run returned, %d before the test:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	})
}

// TestSpoutErrorEndsRun: a spout's non-EOF error fails the run like an
// operator error does — it is reported, and every other task stops,
// here an endless second spout replica.
func TestSpoutErrorEndsRun(t *testing.T) {
	noGoroutineLeak(t)
	errSource := errors.New("source unreachable")
	built := 0
	spout := func() Spout {
		failing := built == 0
		built++
		i := 0
		return SpoutFunc(func(c Collector) error {
			if i++; failing && i > 100 {
				return errSource
			}
			sendInt(c, int64(i))
			return nil
		})
	}
	topo := Topology{
		App:         sinkGraph(t, 2),
		Spouts:      map[string]func() Spout{"spout": spout},
		Operators:   map[string]func() Operator{"agg": sinkOp},
		Replication: map[string]int{"spout": 2},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Result, 1)
	go func() { res, _ := e.Run(0); done <- res }()
	select {
	case res := <-done:
		found := false
		for _, err := range res.Errors {
			found = found || errors.Is(err, errSource)
		}
		if !found {
			t.Fatalf("spout error not reported: %v", res.Errors)
		}
	case <-time.After(10 * time.Second):
		e.Kill()
		<-done
		t.Fatal("run still going 10s after a spout failed")
	}
}

func TestOperatorPanicIsIsolated(t *testing.T) {
	noGoroutineLeak(t)
	panicking := func() Operator {
		n := 0
		return OperatorFunc(func(c Collector, t *tuple.Tuple) error {
			n++
			if n > 5 {
				panic("boom")
			}
			forwardTuple(c, t)
			return nil
		})
	}
	topo := Topology{
		App:       pipelineGraph(t),
		Spouts:    map[string]func() Spout{"spout": boundedSpoutEOF(100000)},
		Operators: map[string]func() Operator{"double": panicking, "sink": sinkOp},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Result, 1)
	go func() { res, _ := e.Run(0); done <- res }()
	select {
	case res := <-done:
		found := false
		for _, err := range res.Errors {
			if strings.Contains(err.Error(), "panicked") {
				found = true
			}
		}
		if !found {
			t.Fatalf("panic not captured: %v", res.Errors)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline did not survive operator panic")
	}
}

func TestNewRejectsMissingBuilders(t *testing.T) {
	topo := Topology{
		App:    pipelineGraph(t),
		Spouts: map[string]func() Spout{},
		Operators: map[string]func() Operator{
			"double": doubler, "sink": sinkOp,
		},
	}
	if _, err := New(topo, DefaultConfig()); err == nil {
		t.Error("missing spout builder accepted")
	}
	topo2 := Topology{
		App:       pipelineGraph(t),
		Spouts:    map[string]func() Spout{"spout": boundedSpoutEOF(1)},
		Operators: map[string]func() Operator{"sink": sinkOp},
	}
	if _, err := New(topo2, DefaultConfig()); err == nil {
		t.Error("missing operator builder accepted")
	}
}

func TestMultiStreamRouting(t *testing.T) {
	// An operator with two output streams routed to different sinks.
	g := graph.New("streams")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "split", Selectivity: map[string]float64{"odd": 0.5, "even": 0.5}})
	g.AddNode(&graph.Node{Name: "oddsink", IsSink: true})
	g.AddNode(&graph.Node{Name: "evensink", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "split", Stream: "default"})
	g.AddEdge(graph.Edge{From: "split", To: "oddsink", Stream: "odd"})
	g.AddEdge(graph.Edge{From: "split", To: "evensink", Stream: "even"})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	splitter := func() Operator {
		return OperatorFunc(func(c Collector, t *tuple.Tuple) error {
			out := c.Borrow()
			out.CopyValuesFrom(t)
			if t.Int(0)%2 == 0 {
				out.Stream = tuple.Intern("even")
			} else {
				out.Stream = tuple.Intern("odd")
			}
			c.Send(out)
			return nil
		})
	}
	topo := Topology{
		App:       g,
		Spouts:    map[string]func() Spout{"spout": boundedSpoutEOF(1000)},
		Operators: map[string]func() Operator{"split": splitter, "oddsink": sinkOp, "evensink": sinkOp},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SinkTuples != 1000 {
		t.Fatalf("sink tuples = %d, want 1000", res.SinkTuples)
	}
}

func TestFieldHashStability(t *testing.T) {
	// Fields routing hashes slots through tuple.Tuple.Hash; the
	// assignments must be stable per value and distinct across values.
	if tuple.New("word").Hash(0) != tuple.New("word").Hash(0) {
		t.Error("string hash unstable")
	}
	if tuple.New(int64(7)).Hash(0) != tuple.New(7).Hash(0) {
		t.Error("int and int64 hash differently")
	}
	if tuple.New(true).Hash(0) == tuple.New(false).Hash(0) {
		t.Error("bool hash collision")
	}
	_ = tuple.New(3.14).Hash(0)
}

// TestJumboBatchSizeAmortizesQueueOps: larger batches mean fewer queue
// insertions for the same tuple count.
func TestJumboBatchSizeAmortizesQueueOps(t *testing.T) {
	count := func(batch int) uint64 {
		topo := Topology{
			App:       pipelineGraph(t),
			Spouts:    map[string]func() Spout{"spout": boundedSpoutEOF(4096)},
			Operators: map[string]func() Operator{"double": doubler, "sink": sinkOp},
		}
		cfg := DefaultConfig()
		cfg.BatchSize = batch
		e, err := New(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		var puts uint64
		for _, task := range e.tasks {
			if task.in != nil {
				p, _ := task.in.Stats()
				puts += p
			}
		}
		return puts
	}
	single := count(1)
	batched := count(64)
	if batched*16 > single {
		t.Errorf("batch=64 used %d insertions vs %d at batch=1; jumbo tuples should amortize by ~64x", batched, single)
	}
}

// TestShutdownBookkeeping: after a run every queue is closed exactly
// once and drained, and the counters are coherent.
func TestShutdownBookkeeping(t *testing.T) {
	topo := Topology{
		App:       pipelineGraph(t),
		Spouts:    map[string]func() Spout{"spout": boundedSpoutEOF(100)},
		Operators: map[string]func() Operator{"double": doubler, "sink": sinkOp},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	// Every queue must be closed and drained.
	for _, task := range e.tasks {
		if task.in == nil {
			continue
		}
		if task.in.Len() != 0 {
			t.Errorf("task %s queue retains %d batches after shutdown", task.label, task.in.Len())
		}
		puts, gets := task.in.Stats()
		if puts != gets {
			t.Errorf("task %s: %d puts vs %d gets", task.label, puts, gets)
		}
	}
	if res.SinkTuples != 200 {
		t.Errorf("sink tuples = %d", res.SinkTuples)
	}
}
