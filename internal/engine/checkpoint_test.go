package engine

// Tests for the aligned-barrier checkpoint subsystem: completion across
// all tasks, the consistency of the aligned cut under multi-hop fan-out
// and fan-in, kill/restore/replay, and the property that checkpointing
// never drops, duplicates or reorders tuples and never breaks the
// watermark min-merge.

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"briskstream/internal/checkpoint"
	"briskstream/internal/graph"
	"briskstream/internal/tuple"
)

// seqSpout emits (replica, i) for i = 1..limit with event time i and a
// watermark every 16 tuples. It is replayable: the stream is a pure
// function of the cursor.
type seqSpout struct {
	replica int64
	i       int64
	limit   int64
}

func (s *seqSpout) Next(c Collector) error {
	if s.i >= s.limit {
		return ioEOF
	}
	s.i++
	out := c.Borrow()
	out.AppendInt(s.replica)
	out.AppendInt(s.i)
	out.Event = s.i
	c.Send(out)
	if s.i%16 == 0 {
		c.EmitWatermark(s.i)
	}
	return nil
}

func (s *seqSpout) Offset() int64 { return s.i }

func (s *seqSpout) SeekTo(offset int64) error {
	s.i = offset
	return nil
}

// sumOp aggregates the test stream: total sum of the sequence values
// plus a per-origin-replica tuple count. It snapshots both.
type sumOp struct {
	sum       int64
	perOrigin map[int64]int64
}

func newSumOp() *sumOp { return &sumOp{perOrigin: map[int64]int64{}} }

func (o *sumOp) Process(c Collector, t *tuple.Tuple) error {
	o.perOrigin[t.Int(0)]++
	o.sum += t.Int(1)
	return nil
}

func (o *sumOp) Snapshot(enc *checkpoint.Encoder) error {
	enc.Int64(o.sum)
	enc.Len(len(o.perOrigin))
	origins := make([]int64, 0, len(o.perOrigin))
	for k := range o.perOrigin {
		origins = append(origins, k)
	}
	for i := 1; i < len(origins); i++ { // insertion sort: tiny key sets
		for j := i; j > 0 && origins[j] < origins[j-1]; j-- {
			origins[j], origins[j-1] = origins[j-1], origins[j]
		}
	}
	for _, k := range origins {
		enc.Int64(k)
		enc.Int64(o.perOrigin[k])
	}
	return nil
}

func (o *sumOp) Restore(dec *checkpoint.Decoder) error {
	o.sum = dec.Int64()
	clear(o.perOrigin)
	n := dec.Len()
	for i := 0; i < n && dec.Err() == nil; i++ {
		k := dec.Int64()
		o.perOrigin[k] = dec.Int64()
	}
	return dec.Err()
}

// sinkGraph builds spout -> agg(sink).
func sinkGraph(t *testing.T, spoutRepl int) *graph.Graph {
	t.Helper()
	g := graph.New("ckpt")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}}))
	must(g.AddNode(&graph.Node{Name: "agg", IsSink: true}))
	must(g.AddEdge(graph.Edge{From: "spout", To: "agg", Stream: "default", Partitioning: graph.Global}))
	must(g.Validate())
	return g
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// TestCheckpointKillRestoreReplay is the engine-level recovery cycle:
// run with periodic checkpoints, kill mid-run, restore from the latest
// completed checkpoint, finish the (now finite) stream, and verify the
// final state equals an uninterrupted run's exactly.
func TestCheckpointKillRestoreReplay(t *testing.T) {
	noGoroutineLeak(t)
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
	res := <-done
	if len(res.Errors) != 0 {
		t.Fatalf("killed run reported errors: %v", res.Errors)
	}

	// The kill left the operator ahead of the checkpoint cut (or at it);
	// restore must rewind both the operator and the source.
	id, err := e.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 || id > co.LatestID() {
		t.Fatalf("restore id = %d, latest completed = %d", id, co.LatestID())
	}
	// Make the stream finite from wherever the killed run got to, then
	// let recovery replay to EOF.
	limit := spout.i + 10000
	spout.limit = limit
	res2, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Errors) != 0 {
		t.Fatalf("recovery run errors: %v", res2.Errors)
	}
	wantSum := limit * (limit + 1) / 2
	if agg.sum != wantSum {
		t.Fatalf("recovered sum = %d, want %d (sum 1..%d): replay diverged from the failure-free stream", agg.sum, wantSum, limit)
	}
	if agg.perOrigin[0] != limit {
		t.Fatalf("recovered tuple count = %d, want %d: tuples lost or duplicated across recovery", agg.perOrigin[0], limit)
	}
}

// TestCheckpointIdsAscendAcrossEngines is the regression for checkpoint
// id allocation: the coordinator (and its store) outlive the engine, so
// a fresh engine sharing the coordinator — a restarted process resuming
// after a crash — must allocate ids above the completed floor. An
// allocator restarting at 1 would have every Begin rejected and every
// ack dropped: the resumed run would silently never checkpoint again.
func TestCheckpointIdsAscendAcrossEngines(t *testing.T) {
	co := checkpoint.NewCoordinator(nil)
	mkEngine := func() *Engine {
		topo := Topology{
			App:       sinkGraph(t, 1),
			Spouts:    map[string]func() Spout{"spout": func() Spout { return &seqSpout{limit: 1 << 62} }},
			Operators: map[string]func() Operator{"agg": func() Operator { return newSumOp() }},
		}
		cfg := DefaultConfig()
		cfg.Checkpoint = co
		cfg.CheckpointInterval = 2 * time.Millisecond
		e, err := New(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	runUntil := func(e *Engine, completed uint64) {
		t.Helper()
		done := make(chan *Result, 1)
		go func() {
			res, _ := e.Run(0)
			done <- res
		}()
		if !waitFor(10*time.Second, func() bool { return co.Completed() >= completed }) {
			t.Fatalf("stuck at %d completed checkpoints, want >= %d (ids colliding with the coordinator's floor?)", co.Completed(), completed)
		}
		e.Kill()
		if res := <-done; len(res.Errors) != 0 {
			t.Fatal(res.Errors)
		}
	}
	runUntil(mkEngine(), 2)
	floor := co.LatestID()
	// The second engine must checkpoint ABOVE the first engine's ids.
	runUntil(mkEngine(), co.Completed()+2)
	if co.LatestID() <= floor {
		t.Fatalf("latest completed id %d did not advance past the first engine's %d", co.LatestID(), floor)
	}
}

// TestCoordinatorSeedsFloorFromStore covers the cross-process variant:
// a coordinator opened over a store holding a dead run's checkpoints
// must hand engines an id floor above them, or the new run's low-id
// files would lose Latest() to the stale ones.
func TestCoordinatorSeedsFloorFromStore(t *testing.T) {
	store := checkpoint.NewMemoryStore()
	if err := store.Save(&checkpoint.Checkpoint{ID: 41, Tasks: map[string][]byte{"spout#0": nil}}); err != nil {
		t.Fatal(err)
	}
	co := checkpoint.NewCoordinator(store)
	if co.LatestID() != 41 {
		t.Fatalf("coordinator floor = %d, want 41 (seeded from the store)", co.LatestID())
	}
	spout := &seqSpout{limit: 1 << 62}
	topo := Topology{
		App:       sinkGraph(t, 1),
		Spouts:    map[string]func() Spout{"spout": func() Spout { return spout }},
		Operators: map[string]func() Operator{"agg": func() Operator { return newSumOp() }},
	}
	cfg := DefaultConfig()
	cfg.Checkpoint = co
	e, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Result, 1)
	go func() {
		res, _ := e.Run(0)
		done <- res
	}()
	// TriggerCheckpoint is defined for a running engine: a request
	// published before Run's reset is treated as stale. Wait for the
	// pipeline to demonstrably flow first.
	if !waitFor(10*time.Second, func() bool { return e.SinkCount() > 0 }) {
		t.Fatal("pipeline never started")
	}
	id := e.TriggerCheckpoint()
	if id <= 41 {
		t.Fatalf("triggered id %d, want > 41", id)
	}
	if !waitFor(10*time.Second, func() bool { return co.LatestID() == id }) {
		t.Fatalf("checkpoint %d never completed (floor seeding broken?)", id)
	}
	e.Kill()
	<-done
	cp, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if cp.ID != id {
		t.Fatalf("store latest = %d, want the new run's %d — the stale checkpoint shadowed it", cp.ID, id)
	}
}

// TestAlignedCutConsistency drives a diamond (2 spouts -> 2 forwarding
// mids -> 1 aggregate) and checks the defining property of the aligned
// snapshot: for every completed checkpoint, the aggregate's per-origin
// tuple counts equal exactly the offsets the sources recorded — the cut
// contains a source's pre-barrier tuples, all of them, and nothing
// after, no matter how the two mid replicas interleaved them.
func TestAlignedCutConsistency(t *testing.T) {
	g := diamondGraph(t)
	co := checkpoint.NewCoordinator(nil)
	var spoutN atomic.Int64
	agg := newSumOp()
	topo := Topology{
		App: g,
		Spouts: map[string]func() Spout{"spout": func() Spout {
			return &seqSpout{replica: spoutN.Add(1) - 1, limit: 1 << 62}
		}},
		Operators: map[string]func() Operator{
			"mid": passthrough,
			"agg": func() Operator { return agg },
		},
		Replication: map[string]int{"spout": 2, "mid": 2},
	}
	cfg := DefaultConfig()
	cfg.Checkpoint = co
	cfg.CheckpointInterval = 2 * time.Millisecond
	// Small batches so barriers interleave with partial jumbos too.
	cfg.BatchSize = 8
	e, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Result, 1)
	go func() {
		res, _ := e.Run(0)
		done <- res
	}()
	if !waitFor(10*time.Second, func() bool { return co.Completed() >= 3 }) {
		t.Fatal("checkpoints did not complete")
	}
	e.Kill()
	res := <-done
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}

	cp, err := co.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no completed checkpoint")
	}
	// Decode the source offsets from the spout snapshots.
	offsets := map[int64]int64{}
	for r := 0; r < 2; r++ {
		dec := checkpoint.NewDecoder(cp.Tasks[fmt.Sprintf("spout#%d", r)])
		if !dec.Bool() {
			t.Fatalf("spout#%d snapshot not replayable", r)
		}
		offsets[int64(r)] = dec.Int64()
		if dec.Err() != nil {
			t.Fatal(dec.Err())
		}
	}
	// Decode the aggregate's per-origin counts (engine framing: wm,
	// hasSnapshot, operator payload).
	dec := checkpoint.NewDecoder(cp.Tasks["agg#0"])
	_ = dec.Int64() // task watermark
	if !dec.Bool() {
		t.Fatal("agg snapshot missing")
	}
	restored := newSumOp()
	if err := restored.Restore(dec); err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 2; r++ {
		if restored.perOrigin[r] != offsets[r] {
			t.Fatalf("aligned cut inconsistent for origin %d: aggregate saw %d tuples, source recorded offset %d\n(checkpoint %d, all origins %v vs offsets %v)",
				r, restored.perOrigin[r], offsets[r], cp.ID, restored.perOrigin, offsets)
		}
	}
	// The cut must also balance the sums: sum over both origins of
	// 1..offset equals the snapshot's total.
	want := int64(0)
	for _, off := range offsets {
		want += off * (off + 1) / 2
	}
	if restored.sum != want {
		t.Fatalf("aligned sum = %d, want %d", restored.sum, want)
	}
}

// diamondGraph builds spout -(shuffle)-> mid -(global)-> agg(sink); run
// with spout and mid replicated it is a diamond with fan-in at every
// mid and at agg.
func diamondGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("diamond")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}}))
	must(g.AddNode(&graph.Node{Name: "mid", Selectivity: map[string]float64{"default": 1}}))
	must(g.AddNode(&graph.Node{Name: "agg", IsSink: true}))
	must(g.AddEdge(graph.Edge{From: "spout", To: "mid", Stream: "default"})) // shuffle
	must(g.AddEdge(graph.Edge{From: "mid", To: "agg", Stream: "default", Partitioning: graph.Global}))
	must(g.Validate())
	return g
}

// TestPeriodicCheckpointsDoNotOverlap is the livelock regression: with
// the checkpoint interval far below the time one alignment takes (slow
// mids behind full rings), a fresh checkpoint id per tick made each
// source pick up a different request, every fan-in saw its alignment
// overtaken, no checkpoint ever completed, and each tick left one more
// partial entry in the coordinator. The ticker must wait for the
// checkpoint in flight: checkpoints keep completing and at most one is
// ever pending.
func TestPeriodicCheckpointsDoNotOverlap(t *testing.T) {
	co := checkpoint.NewCoordinator(nil)
	var spoutN atomic.Int64
	topo := Topology{
		App: diamondGraph(t),
		Spouts: map[string]func() Spout{"spout": func() Spout {
			return &seqSpout{replica: spoutN.Add(1) - 1, limit: 1 << 62}
		}},
		Operators: map[string]func() Operator{
			"mid": func() Operator {
				return OperatorFunc(func(c Collector, in *tuple.Tuple) error {
					time.Sleep(50 * time.Microsecond) // a barrier queues behind every buffered tuple
					forwardTuple(c, in)
					return nil
				})
			},
			"agg": func() Operator { return newSumOp() },
		},
		Replication: map[string]int{"spout": 2, "mid": 2},
	}
	cfg := DefaultConfig()
	cfg.Checkpoint = co
	cfg.CheckpointInterval = 100 * time.Microsecond
	cfg.BatchSize = 8
	cfg.QueueCapacity = 16
	e, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Result, 1)
	go func() {
		res, _ := e.Run(0)
		done <- res
	}()
	maxPending := 0
	completed := waitFor(10*time.Second, func() bool {
		maxPending = max(maxPending, co.Pending())
		return co.Completed() >= 3
	})
	e.Kill()
	if res := <-done; len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if !completed {
		t.Errorf("only %d checkpoints completed in 10s at a 100µs interval", co.Completed())
	}
	if maxPending > 1 {
		t.Errorf("%d checkpoints pending at once, want at most 1", maxPending)
	}
}

// orderCheckOp asserts per-origin sequence integrity: under
// checkpointing, every origin's tuples must arrive gapless and in
// order (fields partitioning pins an origin to one replica, and
// per-edge FIFO plus alignment replay must preserve its stream).
type orderCheckOp struct {
	lastSeq  map[int64]int64
	lastWm   int64
	violated atomic.Pointer[string]
	total    atomic.Int64
}

func (o *orderCheckOp) check(origin, seq int64) {
	if want := o.lastSeq[origin] + 1; seq != want {
		msg := fmt.Sprintf("origin %d: seq %d after %d (dropped or reordered)", origin, seq, o.lastSeq[origin])
		o.violated.Store(&msg)
	}
	o.lastSeq[origin] = seq
	o.total.Add(1)
}

func (o *orderCheckOp) Process(c Collector, t *tuple.Tuple) error {
	o.check(t.Int(0), t.Int(1))
	forwardTuple(c, t)
	return nil
}

func (o *orderCheckOp) OnWatermark(c Collector, wm int64) error {
	if wm < o.lastWm {
		msg := fmt.Sprintf("watermark regressed: %d after %d", wm, o.lastWm)
		o.violated.Store(&msg)
	}
	o.lastWm = wm
	return nil
}

// batchOrderCheckOp is orderCheckOp made batch-aware: the same per-row
// check fed by ProcessBatch instead of the row adapter.
type batchOrderCheckOp struct{ *orderCheckOp }

func (o batchOrderCheckOp) ProcessBatch(c Collector, b *tuple.Batch) error {
	for r := 0; r < b.Len(); r++ {
		o.check(b.Int(0, r), b.Int(1, r))
		out := c.Borrow()
		b.CopyRowTo(r, out)
		c.Send(out)
	}
	return nil
}

// TestCheckpointNeverDropsOrReordersTuples is the satellite property
// test: an aggressive barrier cadence (a checkpoint every millisecond,
// landing between, inside and across jumbo batches) must not disturb
// the data path — per-origin sequences stay gapless and ordered through
// a bounded shuffle, watermarks keep min-merging monotonically, and the
// sink sees exactly every emitted tuple. Both ways of consuming a batch
// are under the property: the scalar checker is fed through the row
// adapter, the batch-aware one gets ProcessBatch.
func TestCheckpointNeverDropsOrReordersTuples(t *testing.T) {
	t.Run("scalar", func(t *testing.T) { checkpointNeverDropsOrReorders(t, false) })
	t.Run("columnar", func(t *testing.T) { checkpointNeverDropsOrReorders(t, true) })
}

func checkpointNeverDropsOrReorders(t *testing.T, vectorized bool) {
	g := graph.New("prop")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}}))
	must(g.AddNode(&graph.Node{Name: "check", Selectivity: map[string]float64{"default": 1}}))
	must(g.AddNode(&graph.Node{Name: "sink", IsSink: true}))
	must(g.AddEdge(graph.Edge{From: "spout", To: "check", Stream: "default", Partitioning: graph.Fields, KeyField: 0}))
	must(g.AddEdge(graph.Edge{From: "check", To: "sink", Stream: "default", Partitioning: graph.Global}))
	must(g.Validate())

	const spouts = 4
	const perSpout = 60000
	co := checkpoint.NewCoordinator(nil)
	var spoutN atomic.Int64
	checks := []*orderCheckOp{}
	topo := Topology{
		App: g,
		Spouts: map[string]func() Spout{"spout": func() Spout {
			return &seqSpout{replica: spoutN.Add(1) - 1, limit: perSpout}
		}},
		Operators: map[string]func() Operator{
			"check": func() Operator {
				op := &orderCheckOp{lastSeq: map[int64]int64{}, lastWm: WatermarkMin}
				checks = append(checks, op)
				if vectorized {
					return batchOrderCheckOp{op}
				}
				return op
			},
			"sink": sinkOp,
		},
		Replication: map[string]int{"spout": spouts, "check": 2},
	}
	cfg := DefaultConfig()
	cfg.Checkpoint = co
	cfg.CheckpointInterval = time.Millisecond
	cfg.BatchSize = 16 // barriers hit partial batches often
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
	if co.Completed() == 0 {
		t.Fatal("property run completed no checkpoint — cadence too slow to test anything")
	}
	total := int64(0)
	perOrigin := map[int64]int64{}
	for _, op := range checks {
		if msg := op.violated.Load(); msg != nil {
			t.Fatal(*msg)
		}
		total += op.total.Load()
		for origin, last := range op.lastSeq {
			perOrigin[origin] += last
		}
	}
	if total != spouts*perSpout {
		t.Fatalf("checker saw %d tuples, want %d: checkpointing dropped or duplicated data", total, spouts*perSpout)
	}
	for origin := int64(0); origin < spouts; origin++ {
		if perOrigin[origin] != perSpout {
			t.Fatalf("origin %d final seq = %d, want %d", origin, perOrigin[origin], perSpout)
		}
	}
	if res.SinkTuples != spouts*perSpout {
		t.Fatalf("sink received %d, want %d", res.SinkTuples, spouts*perSpout)
	}
	// Watermarks survived the barrier traffic: the checkers' final
	// watermark reached the EOF flush.
	for i, op := range checks {
		if op.lastWm != WatermarkMax {
			t.Fatalf("check#%d final watermark = %d, want WatermarkMax", i, op.lastWm)
		}
	}
}

// eofSignalSpout flags (race-safely) when the wrapped source EOFs.
type eofSignalSpout struct {
	*seqSpout
	done *atomic.Bool
}

func (s *eofSignalSpout) Next(c Collector) error {
	err := s.seqSpout.Next(c)
	if err == ioEOF {
		s.done.Store(true)
	}
	return err
}

// TestCheckpointSurvivesFinishedSource: after one of two sources EOFs,
// checkpoints triggered on the live source must still align (the dead
// edge is excluded via the done marker) — without the exclusion the
// consumer would park the live source's input forever, stalling the
// pipeline and growing memory unboundedly.
func TestCheckpointSurvivesFinishedSource(t *testing.T) {
	co := checkpoint.NewCoordinator(nil)
	var shortDone atomic.Bool
	short := &eofSignalSpout{seqSpout: &seqSpout{replica: 0, limit: 100}, done: &shortDone} // EOFs almost immediately
	long := &seqSpout{replica: 1, limit: 1 << 62}
	g := graph.New("mixed")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddNode(&graph.Node{Name: "a", IsSpout: true, Selectivity: map[string]float64{"default": 1}}))
	must(g.AddNode(&graph.Node{Name: "b", IsSpout: true, Selectivity: map[string]float64{"default": 1}}))
	must(g.AddNode(&graph.Node{Name: "agg", IsSink: true}))
	must(g.AddEdge(graph.Edge{From: "a", To: "agg", Stream: "default", Partitioning: graph.Global}))
	must(g.AddEdge(graph.Edge{From: "b", To: "agg", Stream: "default", Partitioning: graph.Global}))
	must(g.Validate())
	agg := newSumOp()
	topo := Topology{
		App: g,
		Spouts: map[string]func() Spout{
			"a": func() Spout { return short },
			"b": func() Spout { return long },
		},
		Operators: map[string]func() Operator{"agg": func() Operator { return agg }},
	}
	cfg := DefaultConfig()
	cfg.Checkpoint = co
	cfg.CheckpointInterval = 2 * time.Millisecond
	e, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Result, 1)
	go func() {
		res, _ := e.Run(0)
		done <- res
	}()
	// Wait until the short source certainly finished, then demand that
	// MORE sink progress happens and checkpoints keep completing: both
	// fail if alignment parks (or permanently waits on) the dead edge.
	if !waitFor(10*time.Second, func() bool { return shortDone.Load() }) {
		t.Fatal("short source never finished")
	}
	base := e.SinkCount()
	baseCkpt := co.Completed()
	if !waitFor(10*time.Second, func() bool {
		return e.SinkCount() > base+50000 && co.Completed() > baseCkpt+2
	}) {
		t.Fatalf("pipeline stalled after source EOF: sink %d->%d, checkpoints %d->%d (alignment parked the live edge?)",
			base, e.SinkCount(), baseCkpt, co.Completed())
	}
	e.Kill()
	res := <-done
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
}
