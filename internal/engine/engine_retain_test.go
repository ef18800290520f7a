package engine

// Pool-recycling safety tests: operators that keep tuples beyond
// Process (the Retain escape hatch for windows/joins) must be able to
// hand them to other goroutines without the row adapter's pool
// recycling them underneath, across Kill/rerun and checkpoint restore,
// without leaking or double-freeing one. Run under -race (make race /
// CI) these exercise the reference-counting protocol end to end. The
// accounting tests rely on Config.TrackPools and Engine.PoolStats:
// after a clean EOF with every retained reference dropped, pool gets
// must equal pool puts.

import (
	"sync"
	"testing"
	"time"

	"briskstream/internal/checkpoint"
	"briskstream/internal/graph"
	"briskstream/internal/tuple"
)

func TestRetainAcrossGoroutines(t *testing.T) {
	const n = 20000
	g := graph.New("retain")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "hold", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "hold", Stream: "default", Partitioning: graph.Shuffle})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	// Each sink replica retains every input and hands it to a shared
	// side goroutine that reads the payload and drops the reference.
	held := make(chan *tuple.Tuple, 256)
	var side sync.WaitGroup
	side.Add(1)
	var sum, count int64
	go func() {
		defer side.Done()
		for tp := range held {
			sum += tp.Int(0)
			count++
			tp.Release()
		}
	}()

	topo := Topology{
		App:    g,
		Spouts: map[string]func() Spout{"spout": boundedSpoutEOF(n)},
		Operators: map[string]func() Operator{
			"hold": func() Operator {
				return OperatorFunc(func(c Collector, tp *tuple.Tuple) error {
					tp.Retain()
					held <- tp
					return nil
				})
			},
		},
		Replication: map[string]int{"hold": 4},
	}
	cfg := DefaultConfig()
	cfg.QueueCapacity = 8 // small buffers: maximum recycling pressure
	cfg.BatchSize = 16
	e, err := New(topo, cfg)
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
	close(held)
	side.Wait()
	if count != n {
		t.Fatalf("side goroutine saw %d tuples, want %d", count, n)
	}
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Fatalf("payload sum = %d, want %d (retained tuple recycled early?)", sum, want)
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

// cappedSpout emits 1..limit; the test raises limit to finite-ize an
// endless stream after a kill (only while no run is in flight).
type cappedSpout struct {
	i, limit int64
}

func (s *cappedSpout) Next(c Collector) error {
	if s.i >= s.limit {
		return ioEOF
	}
	s.i++
	sendInt(c, s.i)
	return nil
}

// TestRetainAcrossKillAndRerun is the -race stress for the adapter
// pool: sink replicas retain tuples and hand them to a side goroutine
// (whose plain Release takes the thread-safe sync.Pool route while the
// owner keeps using its stash), the engine is killed mid-run (stranding
// jumbos in closed rings), and a second run reopens everything and
// drains to EOF. With TrackPools on, the pool accounting must balance
// exactly once the side goroutine has drained.
func TestRetainAcrossKillAndRerun(t *testing.T) {
	g := graph.New("retain-recycle")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "hold", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "hold", Stream: "default", Partitioning: graph.Shuffle})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	held := make(chan *tuple.Tuple, 256)
	sideDone := make(chan int64, 1)
	go func() {
		var released int64
		for tp := range held {
			_ = tp.Int(0)
			tp.Release()
			released++
		}
		sideDone <- released
	}()

	spout := &cappedSpout{limit: 1 << 62}
	topo := Topology{
		App:    g,
		Spouts: map[string]func() Spout{"spout": func() Spout { return spout }},
		Operators: map[string]func() Operator{
			"hold": func() Operator {
				i := 0
				return OperatorFunc(func(c Collector, tp *tuple.Tuple) error {
					if i++; i%4 == 0 {
						tp.Retain()
						held <- tp
					}
					return nil
				})
			},
		},
		Replication: map[string]int{"hold": 2},
	}
	cfg := DefaultConfig()
	cfg.QueueCapacity = 8 // small buffers: maximum recycling pressure
	cfg.BatchSize = 16
	cfg.TrackPools = true
	e, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Run 1: endless stream, killed mid-flight.
	done := make(chan *Result, 1)
	go func() {
		res, _ := e.Run(0)
		done <- res
	}()
	if !waitFor(10*time.Second, func() bool { return e.SinkCount() > 2000 }) {
		t.Fatal("no progress before kill")
	}
	e.Kill()
	if res := <-done; len(res.Errors) != 0 {
		t.Fatalf("killed run errors: %v", res.Errors)
	}

	// Run 2: finite-ize the stream and drain to EOF. The reset must
	// discard everything the kill stranded before reopening the rings.
	spout.limit = spout.i + 5000
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("rerun errors: %v", res.Errors)
	}

	close(held)
	if released := <-sideDone; released == 0 {
		t.Fatal("side goroutine released nothing: retain path untested")
	}
	gets, puts := e.PoolStats()
	if gets == 0 {
		t.Fatal("pool accounting empty despite TrackPools")
	}
	if gets != puts {
		t.Fatalf("pool accounting unbalanced after clean EOF: %d gets / %d puts (leaked or double-freed %d tuples)", gets, puts, int64(gets)-int64(puts))
	}
}

// TestPoolAccountingBalancesAcrossCheckpointRestore is the property
// test from the roadmap: run with periodic aligned checkpoints, kill
// mid-run, restore from the latest completed checkpoint, replay to a
// clean EOF — across the whole cycle (barriers, alignment parking,
// replay) no tuple may leak or double-free, i.e. pool gets == pool puts
// once the final run drains.
func TestPoolAccountingBalancesAcrossCheckpointRestore(t *testing.T) {
	co := checkpoint.NewCoordinator(nil)
	spout := &seqSpout{replica: 0, limit: 1 << 62}
	agg := newSumOp()
	topo := Topology{
		App:       sinkGraph(t, 1),
		Spouts:    map[string]func() Spout{"spout": func() Spout { return spout }},
		Operators: map[string]func() Operator{"agg": func() Operator { return agg }},
	}
	cfg := DefaultConfig()
	cfg.Checkpoint = co
	cfg.CheckpointInterval = 2 * time.Millisecond
	cfg.QueueCapacity = 8
	cfg.BatchSize = 16
	cfg.TrackPools = true
	e, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan *Result, 1)
	go func() {
		res, _ := e.Run(0)
		done <- res
	}()
	if !waitFor(10*time.Second, func() bool { return co.Completed() >= 2 && e.SinkCount() > 0 }) {
		t.Fatal("no checkpoint completed within the deadline")
	}
	e.Kill()
	if res := <-done; len(res.Errors) != 0 {
		t.Fatalf("killed run errors: %v", res.Errors)
	}

	if _, err := e.Restore(); err != nil {
		t.Fatal(err)
	}
	limit := spout.i + 5000
	spout.limit = limit
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("recovery run errors: %v", res.Errors)
	}
	if wantSum := limit * (limit + 1) / 2; agg.sum != wantSum {
		t.Fatalf("recovered sum = %d, want %d", agg.sum, wantSum)
	}

	gets, puts := e.PoolStats()
	if gets == 0 {
		t.Fatal("pool accounting empty despite TrackPools")
	}
	if gets != puts {
		t.Fatalf("pool accounting unbalanced across checkpoint/restore: %d gets / %d puts (leaked or double-freed %d tuples)", gets, puts, int64(gets)-int64(puts))
	}
}
