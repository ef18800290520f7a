package briskstream

import (
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// sendInt emits one integer field on the default stream.
func sendInt(c Collector, v int64) {
	out := c.Borrow()
	out.AppendInt(v)
	c.Send(out)
}

// buildWC assembles a word-count topology on the public API.
func buildWC(limit int64) *Topology {
	var emitted atomic.Int64
	t := NewTopology("wc")
	t.Spout("source", func() Spout {
		return SpoutFunc(func(c Collector) error {
			if emitted.Add(1) > limit {
				return io.EOF
			}
			out := c.Borrow()
			out.AppendStr("the quick brown fox jumps over the lazy dog tonight")
			c.Send(out)
			return nil
		})
	})
	t.Operator("split", func() Operator {
		return OperatorFunc(func(c Collector, tp *Tuple) error {
			for _, w := range strings.Fields(tp.Str(0)) {
				out := c.Borrow()
				out.AppendStr(w)
				c.Send(out)
			}
			return nil
		})
	}).Subscribe("source", Shuffle).Selectivity(DefaultStream, 10)
	t.Operator("count", func() Operator {
		counts := map[string]int64{}
		return OperatorFunc(func(c Collector, tp *Tuple) error {
			w := tp.Str(0)
			if _, ok := counts[w]; !ok {
				// The Str view dies with the tuple; own the key bytes the
				// first time a word is seen.
				w = strings.Clone(w)
			}
			counts[w]++
			out := c.Borrow()
			out.AppendStr(w)
			out.AppendInt(counts[w])
			c.Send(out)
			return nil
		})
	}).Subscribe("split", FieldsKey(0)).Parallelism(2)
	t.Sink("sink", func() Operator {
		return OperatorFunc(func(c Collector, tp *Tuple) error { return nil })
	}).Subscribe("count", Shuffle)
	return t
}

func TestTopologyRunEndToEnd(t *testing.T) {
	topo := buildWC(500)
	res, err := topo.Run(RunConfig{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if res.SinkTuples != 5000 {
		t.Fatalf("sink tuples = %d, want 5000 (500 sentences x 10 words)", res.SinkTuples)
	}
	if res.Processed["split"] != 500 {
		t.Errorf("split processed %d", res.Processed["split"])
	}
}

func TestTopologyValidateCatchesMistakes(t *testing.T) {
	bad := NewTopology("bad")
	bad.Spout("s", func() Spout { return SpoutFunc(func(c Collector) error { return io.EOF }) })
	// No sink.
	if err := bad.Validate(); err == nil {
		t.Error("topology without sink validated")
	}

	dup := NewTopology("dup")
	dup.Spout("x", nil)
	dup.Operator("x", nil)
	if err := dup.Validate(); err == nil {
		t.Error("duplicate operator name validated")
	}

	badPar := buildWC(1)
	badPar.Operator("extra", func() Operator { return nil }).Parallelism(0)
	if err := badPar.Validate(); err == nil {
		t.Error("zero parallelism validated")
	}
}

func TestSubscribeUnknownProducer(t *testing.T) {
	topo := NewTopology("t")
	topo.Sink("k", func() Operator {
		return OperatorFunc(func(c Collector, tp *Tuple) error { return nil })
	}).Subscribe("ghost", Shuffle)
	if err := topo.Validate(); err == nil {
		t.Error("edge from unknown producer validated")
	}
}

func wcStats() map[string]OperatorStats {
	return map[string]OperatorStats{
		"source": {ExecNs: 450, MemoryBytes: 140, TupleBytes: 70},
		"split":  {ExecNs: 1600, MemoryBytes: 300, TupleBytes: 70},
		"count":  {ExecNs: 612, MemoryBytes: 80, TupleBytes: 16},
		"sink":   {ExecNs: 100, MemoryBytes: 48, TupleBytes: 24},
	}
}

func TestOptimizeOnServerA(t *testing.T) {
	topo := buildWC(1)
	p, err := topo.Optimize(OptimizeConfig{
		Machine:         ServerA(),
		Stats:           wcStats(),
		SearchNodeLimit: 400,
		MaxIterations:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.PredictedThroughput <= 0 {
		t.Fatal("no predicted throughput")
	}
	if p.Replication["count"] < 2 {
		t.Errorf("count replication = %d; the counter should scale", p.Replication["count"])
	}
	if !strings.Contains(p.PlacementText, "S0") {
		t.Errorf("placement text = %q", p.PlacementText)
	}
	if d := p.Describe(); !strings.Contains(d, "replication") || !strings.Contains(d, "placement") {
		t.Errorf("Describe output incomplete:\n%s", d)
	}
	if p.ExecGraph() == nil {
		t.Error("ExecGraph not exposed")
	}
}

func TestOptimizeRequiresInputs(t *testing.T) {
	topo := buildWC(1)
	if _, err := topo.Optimize(OptimizeConfig{Stats: wcStats()}); err == nil {
		t.Error("missing machine accepted")
	}
	if _, err := topo.Optimize(OptimizeConfig{Machine: ServerA()}); err == nil {
		t.Error("missing stats accepted")
	}
	partial := wcStats()
	delete(partial, "count")
	if _, err := topo.Optimize(OptimizeConfig{Machine: ServerA(), Stats: partial}); err == nil {
		t.Error("partial stats accepted")
	}
}

func TestSimulatePlan(t *testing.T) {
	topo := buildWC(1)
	m := ServerA()
	p, err := topo.Optimize(OptimizeConfig{
		Machine: m, Stats: wcStats(), SearchNodeLimit: 400, MaxIterations: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := topo.Simulate(p, m)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Throughput <= 0 {
		t.Error("simulated throughput zero")
	}
	// Simulation should land within 2x of the model's prediction.
	ratio := sr.Throughput / p.PredictedThroughput
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("sim/model = %v, want within [0.5, 2]", ratio)
	}
	if len(sr.Utilization) == 0 {
		t.Error("no per-vertex utilization")
	}
	if _, err := topo.Simulate(nil, m); err == nil {
		t.Error("nil plan accepted")
	}
}

func TestOptimizeSmallMachineBacksOffIngress(t *testing.T) {
	topo := buildWC(1)
	p, err := topo.Optimize(OptimizeConfig{
		Machine:         SyntheticMachine("laptop", 1, 2),
		Stats:           wcStats(),
		SearchNodeLimit: 300,
		MaxIterations:   6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.PredictedThroughput <= 0 {
		t.Error("small machine plan has no throughput")
	}
}

func TestRunWithOptimizedReplication(t *testing.T) {
	topo := buildWC(300)
	res, err := topo.Run(RunConfig{
		Replication: map[string]int{"source": 1, "split": 2, "count": 3, "sink": 1},
		Duration:    5 * time.Second, // safety bound; EOF ends sooner
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SinkTuples != 3000 {
		t.Fatalf("sink tuples = %d, want 3000", res.SinkTuples)
	}
}

// ckptSource is a replayable, snapshottable public-API source: emits
// 1..limit and can rewind.
type ckptSource struct{ i, limit int64 }

func (s *ckptSource) Next(c Collector) error {
	if s.i >= s.limit {
		return io.EOF
	}
	s.i++
	sendInt(c, s.i)
	return nil
}

func (s *ckptSource) Offset() int64             { return s.i }
func (s *ckptSource) SeekTo(offset int64) error { s.i = offset; return nil }

// TestRunWithCheckpointsAndResume drives the public fault-tolerance
// surface: a checkpointed run followed by a Resume run on a fresh
// topology instance sharing the coordinator, with a Snapshotter sink
// whose state survives the restore.
func TestRunWithCheckpointsAndResume(t *testing.T) {
	co := NewCheckpointCoordinator(NewMemoryCheckpointStore())
	var lastSum atomic.Int64
	build := func(limit int64) *Topology {
		topo := NewTopology("ckpt")
		topo.Spout("source", func() Spout { return &ckptSource{limit: limit} })
		topo.Sink("sum", func() Operator {
			sum := int64(0)
			return &struct {
				OperatorFunc
				Snapshotter
			}{
				OperatorFunc(func(c Collector, tp *Tuple) error {
					sum += tp.Int(0)
					lastSum.Store(sum)
					return nil
				}),
				snapshotterFuncs{
					snap: func(enc *SnapshotEncoder) error { enc.Int64(sum); return nil },
					rest: func(dec *SnapshotDecoder) error { sum = dec.Int64(); lastSum.Store(sum); return dec.Err() },
				},
			}
		}).Subscribe("source", Global)
		return topo
	}
	// Run 1: finite stream, checkpoints on an interval. The stream is
	// long enough for at least one completed checkpoint on any machine.
	const n = 2_000_000
	res, err := build(n).Run(RunConfig{CheckpointInterval: time.Millisecond, Checkpoint: co})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if co.Completed() == 0 {
		t.Skip("run finished before any checkpoint completed (machine too fast for the interval)")
	}
	want := int64(n) * (n + 1) / 2
	if got := lastSum.Load(); got != want {
		t.Fatalf("run 1 sum = %d, want %d", got, want)
	}
	// Run 2: a fresh topology (fresh operator/spout instances, as after
	// a process restart with a persistent store) resumes from the
	// coordinator's latest checkpoint and replays to EOF; the final
	// state must match the failure-free total exactly.
	lastSum.Store(0)
	res2, err := build(n).Run(RunConfig{Checkpoint: co, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Errors) != 0 {
		t.Fatalf("resume errors: %v", res2.Errors)
	}
	if got := lastSum.Load(); got != want {
		t.Fatalf("resumed sum = %d, want %d", got, want)
	}
	// Resume without any checkpoint is a clean error.
	empty := NewCheckpointCoordinator(nil)
	if _, err := build(10).Run(RunConfig{Checkpoint: empty, Resume: true}); err == nil {
		t.Fatal("Resume with no completed checkpoint must fail")
	}
}

// snapshotterFuncs adapts two closures to Snapshotter.
type snapshotterFuncs struct {
	snap func(*SnapshotEncoder) error
	rest func(*SnapshotDecoder) error
}

func (s snapshotterFuncs) Snapshot(enc *SnapshotEncoder) error { return s.snap(enc) }
func (s snapshotterFuncs) Restore(dec *SnapshotDecoder) error  { return s.rest(dec) }

// TestCheckpointIntervalRequiresCoordinator: a throwaway hidden
// coordinator would make checkpoints pure overhead with no recovery
// handle, so the API refuses the interval without one.
func TestCheckpointIntervalRequiresCoordinator(t *testing.T) {
	if _, err := buildWC(10).Run(RunConfig{CheckpointInterval: time.Millisecond}); err == nil {
		t.Fatal("CheckpointInterval without a coordinator must be rejected")
	}
}
