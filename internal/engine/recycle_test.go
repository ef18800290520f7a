package engine

// Tests for the reverse-SPSC recycling rings wired between each
// (producer, consumer) task pair: tuples released by the consumer flow
// back to the producer's pool through the ring, composing with the
// Retain escape hatch, Kill/Reopen, and checkpoint restore without
// leaking or double-freeing a single tuple. The accounting tests rely
// on Config.TrackPools and Engine.PoolStats: after a clean EOF with
// every retained reference dropped, pool gets must equal pool puts.

import (
	"testing"
	"time"

	"briskstream/internal/checkpoint"
	"briskstream/internal/graph"
	"briskstream/internal/tuple"
)

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

// TestReverseRingsCarryRecycledTuples: with rings enabled (the
// default), a clean run must park recycled tuples in the reverse rings
// — the consumer's final releases land after the producer's last Get,
// so a run that moved any tuples leaves a nonzero parked count. A zero
// here means every release took the sync.Pool fallback and the reverse
// path is dead code.
func TestReverseRingsCarryRecycledTuples(t *testing.T) {
	topo := Topology{
		App:       pipelineGraph(t),
		Spouts:    map[string]func() Spout{"spout": rewindingSpout(2000)},
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
	parked := 0
	for _, tk := range e.tasks {
		for _, r := range tk.rev {
			if r != nil {
				parked += r.Len()
			}
		}
	}
	if parked == 0 {
		t.Fatal("no tuples parked in any reverse ring after a 2000-tuple run")
	}
}

// TestRecycleRingsDisabled: RecycleRingCap < 0 must wire no rings and
// still run cleanly on the pure sync.Pool path.
func TestRecycleRingsDisabled(t *testing.T) {
	topo := Topology{
		App:       pipelineGraph(t),
		Spouts:    map[string]func() Spout{"spout": rewindingSpout(1000)},
		Operators: map[string]func() Operator{"double": doubler, "sink": sinkOp},
	}
	cfg := DefaultConfig()
	cfg.RecycleRingCap = -1
	e, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range e.tasks {
		for _, r := range tk.rev {
			if r != nil {
				t.Fatal("reverse ring wired despite RecycleRingCap < 0")
			}
		}
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SinkTuples != 2000 {
		t.Fatalf("sink tuples = %d, want 2000", res.SinkTuples)
	}
}

// TestRetainRecycleRingsAcrossKillAndRerun is the -race stress for the
// reverse path: sink replicas retain tuples and hand them to a side
// goroutine (whose plain Release must take the thread-safe sync.Pool
// route, never a ring), the engine is killed mid-run (stranding jumbos
// in closed rings and half-filled reverse rings), and a second run
// reopens everything and drains to EOF. With TrackPools on, the pool
// accounting must balance exactly once the side goroutine has drained.
func TestRetainRecycleRingsAcrossKillAndRerun(t *testing.T) {
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
	cfg.QueueCapacity = 8 // small buffers: maximum pressure on the rings
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
	// release everything the kill stranded before reopening the rings.
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
// replay, reverse rings) no tuple may leak or double-free, i.e. pool
// gets == pool puts once the final run drains.
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
