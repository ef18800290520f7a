package engine

// Tests for the worker driver: a step never blocks (output that does
// not fit waits in the edge's overflow), an idle engine parks its
// workers, every wake token is owed to one parked worker and none is
// left after a run, the overflow path allocates nothing in steady
// state, and a kill while overflow is pending leaves the engine
// recoverable.

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"briskstream/internal/checkpoint"
	"briskstream/internal/graph"
	"briskstream/internal/tuple"
)

// fanOp emits ten rows per input row, so a full input batch leaves as
// ten full output batches: more than a one-slot ring takes in one step.
type fanOp struct{ one OneRow }

func (o *fanOp) Process(c Collector, t *tuple.Tuple) error { return o.one.Process(o, c, t) }

func (o *fanOp) ProcessBatch(c Collector, b *tuple.Batch) error {
	for r := 0; r < b.Len(); r++ {
		for i := int64(0); i < 10; i++ {
			out := c.Out(tuple.DefaultStreamID)
			out.PutInt(b.Int(0, r)*10 + i)
			out.EndRowFrom(b, r)
		}
	}
	return nil
}

// sumSink adds up the integers it receives.
type sumSink struct{ rows, sum int64 }

func (s *sumSink) Process(_ Collector, t *tuple.Tuple) error {
	s.rows++
	s.sum += t.Int(0)
	return nil
}

// TestOneWorkerOverflowCompletes: with one worker, one-slot rings and an
// operator that emits ten batches per input batch, a blocking put would
// wait forever for a consumer only its own worker can step. The step
// parks the rest in overflow instead, and the output is exact.
func TestOneWorkerOverflowCompletes(t *testing.T) {
	noGoroutineLeak(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 2000
	snk := &sumSink{}
	topo := Topology{
		App:       pipelineGraph(t),
		Spouts:    map[string]func() Spout{"spout": boundedSpoutEOF(n)},
		Operators: map[string]func() Operator{"double": func() Operator { return &fanOp{} }, "sink": func() Operator { return snk }},
	}
	cfg := DefaultConfig()
	cfg.QueueCapacity = 1
	cfg.BatchSize = 8
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
	if len(e.workers) != 1 {
		t.Fatalf("%d workers under GOMAXPROCS(1), want 1", len(e.workers))
	}
	// Rows 0..10n-1, each once.
	if want := int64(10 * n); snk.rows != want || snk.sum != want*(want-1)/2 {
		t.Fatalf("sink got %d rows summing to %d, want %d rows summing to %d", snk.rows, snk.sum, want, want*(want-1)/2)
	}
}

// TestIdleEngineParksEveryWorker: a spout that emits nothing leaves
// every worker parked most of the time, not spinning, while the spout
// is still polled.
func TestIdleEngineParksEveryWorker(t *testing.T) {
	noGoroutineLeak(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	polls := 0
	topo := Topology{
		App: pipelineGraph(t),
		Spouts: map[string]func() Spout{"spout": func() Spout {
			return SpoutFunc(func(Collector) error { polls++; return nil })
		}},
		Operators: map[string]func() Operator{"double": doubler, "sink": sinkOp},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if len(e.workers) != 2 {
		t.Fatalf("%d workers under GOMAXPROCS(2), want 2", len(e.workers))
	}
	for i, w := range e.workers {
		if w.parks == 0 {
			t.Errorf("worker %d never parked in a 100ms run with nothing to do", i)
		}
	}
	if polls < 10 {
		t.Errorf("idle spout polled %d times in 100ms, want at least one per %v", polls, spoutPoll*10)
	}
}

// TestOverflowStepAllocFree: a step whose second batch finds the ring
// full parks it in the edge's overflow, and the drain that moves it on
// later allocates nothing once the overflow FIFO has grown.
func TestOverflowStepAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LatencySampleEvery = 0
	cfg.QueueCapacity = 1
	c, drainSink := allocHarness(t, cfg, 1, graph.Shuffle, sinkOp)
	src := tuple.NewBatch(1)
	src.Append(tuple.New(int64(0)))
	producer := c.t
	step := func() {
		for i := 0; i < 2*cfg.BatchSize; i++ {
			out := c.Out(tuple.DefaultStreamID)
			out.PutInt(int64(i))
			out.EndRowFrom(src, 0)
		}
		c.settle()
		if c.fail != nil || producer.over != 1 {
			t.Fatalf("fail %v, overflow %d after two batches into a one-slot ring, want 1", c.fail, producer.over)
		}
		drainSink()
		if _, err := c.e.drain(producer); err != nil || producer.over != 0 {
			t.Fatalf("drain: %v, overflow %d left", err, producer.over)
		}
		drainSink()
	}
	for i := 0; i < 16; i++ {
		step() // warm up: batches, free rings and the overflow FIFO
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("a step through overflow allocates %.1f times, want 0", allocs)
	}
}

// TestKillWithOverflowRecovers: a Kill that lands while a task holds
// overflow still ends the run without leaking a goroutine, and Restore
// plus Run reproduce the failure-free output exactly.
func TestKillWithOverflowRecovers(t *testing.T) {
	noGoroutineLeak(t)
	co := checkpoint.NewCoordinator(nil)
	spout := &seqSpout{limit: 1 << 62}
	agg := newSumOp()
	g := graph.New("kill-overflow")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "fan", Selectivity: map[string]float64{"default": 10}})
	g.AddNode(&graph.Node{Name: "agg", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "fan", Stream: "default"})
	g.AddEdge(graph.Edge{From: "fan", To: "agg", Stream: "default"})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	topo := Topology{
		App:    g,
		Spouts: map[string]func() Spout{"spout": func() Spout { return spout }},
		Operators: map[string]func() Operator{
			"fan": func() Operator {
				return OperatorFunc(func(c Collector, in *tuple.Tuple) error {
					for range 10 {
						forwardTuple(c, in)
					}
					return nil
				})
			},
			"agg": func() Operator { return agg },
		},
	}
	cfg := DefaultConfig()
	cfg.QueueCapacity = 1
	cfg.Checkpoint = co
	cfg.CheckpointInterval = 2 * time.Millisecond
	e, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fan := e.byOp["fan"][0]

	done := make(chan *Result, 1)
	go func() {
		res, _ := e.Run(0)
		done <- res
	}()
	if !waitFor(10*time.Second, func() bool { return co.Completed() >= 2 && fan.st.blocked.Load() != nil }) {
		t.Fatal("no checkpoint completed with the fan task in overflow within the deadline")
	}
	e.Kill()
	if res := <-done; len(res.Errors) != 0 {
		t.Fatalf("killed run reported errors: %v", res.Errors)
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
	if want := 10 * limit * (limit + 1) / 2; agg.sum != want {
		t.Fatalf("recovered sum = %d, want %d: replay diverged from the failure-free stream", agg.sum, want)
	}
	if agg.perOrigin[0] != 10*limit {
		t.Fatalf("recovered row count = %d, want %d: rows lost or duplicated across recovery", agg.perOrigin[0], 10*limit)
	}
}

// TestWakeClaimsOneParkedWorker: wakes beyond the parked workers send
// nothing, so a worker's next park does not return on a stale token.
func TestWakeClaimsOneParkedWorker(t *testing.T) {
	g := &group{ch: make(chan struct{}, 4)}
	g.parked.Store(1)
	for range 5 {
		g.wake()
	}
	if n, p := len(g.ch), g.parked.Load(); n != 1 || p != 0 {
		t.Fatalf("five wakes of one parked worker left %d tokens and parked %d, want 1 and 0", n, p)
	}
	if w := g.wakes.Load(); w != 1 {
		t.Fatalf("wakes counted %d claims, want 1", w)
	}
}

// TestParkExitTakesClaimedWake: a worker that leaves park on its own
// after a wake claimed it takes that wake's token with it.
func TestParkExitTakesClaimedWake(t *testing.T) {
	g := &group{ch: make(chan struct{}, 2)}
	w := &worker{g: g}
	g.parked.Store(1)
	if !g.wake() {
		t.Fatal("wake found no parked worker")
	}
	w.unpark()
	if n, p := len(g.ch), g.parked.Load(); n != 0 || p != 0 {
		t.Fatalf("unpark after a claimed wake left %d tokens and parked %d, want 0 and 0", n, p)
	}
	// Unclaimed, it only takes itself off parked.
	g.parked.Store(1)
	w.unpark()
	if n, p := len(g.ch), g.parked.Load(); n != 0 || p != 0 {
		t.Fatalf("unclaimed unpark left %d tokens and parked %d, want 0 and 0", n, p)
	}
}

// TestParkWakeStress runs park's protocol — raise parked, recheck,
// then leave at once, block for a wake, or block until a timeout —
// on 8 parkers against 4 wakers. A lost wake-up hangs a parker that
// blocks without a timeout; a stale token outlives the run.
func TestParkWakeStress(t *testing.T) {
	const parkers, wakers, cycles = 8, 4, 2000
	g := &group{ch: make(chan struct{}, parkers)}
	var stop atomic.Bool
	var wakes sync.WaitGroup
	for range wakers {
		wakes.Add(1)
		go func() {
			defer wakes.Done()
			for !stop.Load() {
				g.wake()
				runtime.Gosched()
			}
		}()
	}
	var parks sync.WaitGroup
	for i := range parkers {
		parks.Add(1)
		go func() {
			defer parks.Done()
			w := &worker{g: g}
			tm := time.NewTimer(time.Hour)
			tm.Stop()
			rng := rand.New(rand.NewPCG(uint64(i), 1))
			for range cycles {
				g.parked.Add(1)
				switch rng.IntN(3) {
				case 0: // the recheck found work
					w.unpark()
				case 1: // no deadline
					<-g.ch
				default: // a deadline
					tm.Reset(time.Duration(rng.IntN(20)) * time.Microsecond)
					select {
					case <-g.ch:
					case <-tm.C:
						w.unpark()
					}
					tm.Stop()
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { parks.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("parkers still blocked after 30s: a wake-up was lost (parked %d, tokens %d)", g.parked.Load(), len(g.ch))
	}
	stop.Store(true)
	wakes.Wait()
	if n, p := len(g.ch), g.parked.Load(); n != 0 || p != 0 {
		t.Fatalf("at quiescence %d tokens and parked %d, want 0 and 0", n, p)
	}
	if w, p := g.wakes.Load(), uint64(parkers*cycles); w > p {
		t.Fatalf("%d wakes claimed %d parks", w, p)
	}
}

// pacedRows returns a spout that emits n rows at most one per gap and
// then ends; between rows its Next emits nothing, so the workers park.
func pacedRows(n int, gap time.Duration) func() Spout {
	return func() Spout {
		i := 0
		var last time.Time
		return SpoutFunc(func(c Collector) error {
			if i >= n {
				return ioEOF
			}
			if time.Since(last) < gap {
				return nil
			}
			last = time.Now()
			sendInt(c, int64(i))
			i++
			return nil
		})
	}
}

// TestRunLeavesNoWakeToken: after a run in which two workers parked and
// woke many times, and after a re-run on the same engine, no group
// holds a token or a parked count — the next run's first park blocks.
func TestRunLeavesNoWakeToken(t *testing.T) {
	noGoroutineLeak(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	topo := Topology{
		App:       pipelineGraph(t),
		Spouts:    map[string]func() Spout{"spout": pacedRows(1<<30, 200*time.Microsecond)},
		Operators: map[string]func() Operator{"double": doubler, "sink": sinkOp},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for run := range 2 {
		res, err := e.Run(50 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Errors) != 0 || res.SinkTuples == 0 {
			t.Fatalf("run %d: errors %v, %d sink tuples", run, res.Errors, res.SinkTuples)
		}
		if len(e.workers) != 2 {
			t.Fatalf("%d workers under GOMAXPROCS(2), want 2", len(e.workers))
		}
		e.checkWakes() // panics on a leftover token or parked count
		for i, g := range e.groups {
			if g.parks.Load() == 0 {
				t.Fatalf("run %d: group %d never parked on a paced spout", run, i)
			}
		}
	}
}
