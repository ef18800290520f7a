package apps

// End-to-end recovery: kill a checkpointed run of WC, TW, FD or SD
// mid-flight, restore from the latest completed checkpoint, replay the
// sources from
// their recorded offsets, and require the recovered output to equal the
// failure-free run's output exactly. The sink participates in the
// checkpoint (it snapshots its received multiset), so "output equals"
// is exact — not modulo duplicates.

import (
	"fmt"
	"io"
	"testing"
	"time"

	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
	"briskstream/internal/graph"
	"briskstream/internal/tuple"
)

// limitSpout bounds a replayable spout to a finite stream: io.EOF once
// the inner offset reaches limit. Offset/SeekTo forward, so the engine
// checkpoints and replays the wrapped source transparently.
type limitSpout struct {
	inner engine.ReplayableSpout
	limit int64
}

func (s *limitSpout) Next(c engine.Collector) error {
	if s.inner.Offset() >= s.limit {
		return io.EOF
	}
	return s.inner.Next(c)
}

func (s *limitSpout) Offset() int64             { return s.inner.Offset() }
func (s *limitSpout) SeekTo(offset int64) error { return s.inner.SeekTo(offset) }

// recordingSink counts every received tuple by a canonical (values,
// event) key and snapshots the multiset, making final sink output
// comparable across failure-free and recovered runs.
type recordingSink struct {
	got map[string]int64
}

func newRecordingSink() *recordingSink { return &recordingSink{got: map[string]int64{}} }

func (s *recordingSink) Process(c engine.Collector, t *tuple.Tuple) error {
	s.got[fmt.Sprintf("%v@%d", t, t.Event)]++
	return nil
}

func (s *recordingSink) Snapshot(enc *checkpoint.Encoder) error {
	checkpoint.SaveMapOrdered(enc, s.got,
		func(e *checkpoint.Encoder, k string) { e.String(k) },
		func(e *checkpoint.Encoder, v int64) { e.Int64(v) })
	return nil
}

func (s *recordingSink) Restore(dec *checkpoint.Decoder) error {
	return checkpoint.LoadMapOrdered(dec, s.got,
		(*checkpoint.Decoder).String,
		(*checkpoint.Decoder).Int64)
}

// recoveryCase describes one app under test.
type recoveryCase struct {
	name  string
	limit int64
	mk    func() (*graph.Graph, engine.ReplayableSpout, map[string]func() engine.Operator, map[string]int)
}

func recoveryCases() []recoveryCase {
	return []recoveryCase{
		{
			name:  "WC",
			limit: 80000,
			mk: func() (*graph.Graph, engine.ReplayableSpout, map[string]func() engine.Operator, map[string]int) {
				app := WordCount()
				return app.Graph, newWCSpout(424242), app.Operators,
					map[string]int{"parser": 1, "splitter": 2, "counter": 2, "sink": 1}
			},
		},
		{
			name:  "TW",
			limit: 120000,
			mk: func() (*graph.Graph, engine.ReplayableSpout, map[string]func() engine.Operator, map[string]int) {
				app := TrendingWords()
				return app.Graph, newTWSpout(515151), app.Operators,
					map[string]int{"sessionize": 2, "rank": 1, "sink": 1}
			},
		},
		{
			// FD has no windows — its state is the predict operator's
			// per-entity map — so it covers the plain-Snapshotter path.
			name:  "FD",
			limit: 60000,
			mk: func() (*graph.Graph, engine.ReplayableSpout, map[string]func() engine.Operator, map[string]int) {
				app := FraudDetection()
				return app.Graph, newFDSpout(616161), app.Operators,
					map[string]int{"parser": 1, "predict": 2, "sink": 1}
			},
		},
		{
			// SD's moving_avg is the only sliding window the suites run
			// through ProcessBatch end to end.
			name:  "SD",
			limit: 60000,
			mk: func() (*graph.Graph, engine.ReplayableSpout, map[string]func() engine.Operator, map[string]int) {
				app := SpikeDetection()
				return app.Graph, newSDSpout(717171), app.Operators,
					map[string]int{"parser": 1, "moving_avg": 2, "spike_detect": 1, "sink": 1}
			},
		},
	}
}

// buildRecoveryEngine wires one app instance with a fresh bounded spout
// and recording sink.
func buildRecoveryEngine(t *testing.T, rc recoveryCase, co *checkpoint.Coordinator) (*engine.Engine, *recordingSink) {
	t.Helper()
	g, inner, operators, repl := rc.mk()
	sink := newRecordingSink()
	ops := make(map[string]func() engine.Operator, len(operators))
	for name, mk := range operators {
		ops[name] = mk
	}
	ops["sink"] = func() engine.Operator { return sink }
	repl["spout"] = 1 // one bounded deterministic source
	cfg := engine.DefaultConfig()
	if co != nil {
		cfg.Checkpoint = co
		cfg.CheckpointInterval = 2 * time.Millisecond
	}
	e, err := engine.New(engine.Topology{
		App:         g,
		Spouts:      map[string]func() engine.Spout{"spout": func() engine.Spout { return &limitSpout{inner: inner, limit: rc.limit} }},
		Operators:   ops,
		Replication: repl,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, sink
}

func diffMultisets(want, got map[string]int64) string {
	for k, n := range want {
		if got[k] != n {
			return fmt.Sprintf("key %q: want %d, got %d", k, n, got[k])
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			return fmt.Sprintf("unexpected key %q (count %d)", k, n)
		}
	}
	return ""
}

func TestRecoveryOutputEqualsFailureFree(t *testing.T) {
	for _, rc := range recoveryCases() {
		t.Run(rc.name, func(t *testing.T) {
			// Failure-free reference run.
			refEngine, refSink := buildRecoveryEngine(t, rc, nil)
			res, err := refEngine.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Errors) != 0 {
				t.Fatalf("reference run errors: %v", res.Errors)
			}
			if len(refSink.got) == 0 {
				t.Fatal("reference run produced no sink output")
			}

			// Checkpointed run, killed mid-flight.
			co := checkpoint.NewCoordinator(nil)
			e, sink := buildRecoveryEngine(t, rc, co)
			done := make(chan *engine.Result, 1)
			go func() {
				r, _ := e.Run(0)
				done <- r
			}()
			deadline := time.Now().Add(30 * time.Second)
			for co.Completed() < 2 && time.Now().Before(deadline) {
				select {
				case r := <-done:
					// The stream finished before the kill fired; recovery
					// below still restores and replays the tail.
					done <- r
					deadline = time.Now()
				default:
					time.Sleep(500 * time.Microsecond)
				}
			}
			e.Kill()
			killRes := <-done
			if len(killRes.Errors) != 0 {
				t.Fatalf("killed run errors: %v", killRes.Errors)
			}
			if co.Completed() == 0 {
				t.Fatal("no checkpoint completed before the kill — nothing to recover from")
			}

			// Recover: restore the cut, replay the sources, run to EOF.
			id, err := e.Restore()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: killed at sink=%d tuples, recovering from checkpoint %d (%d completed)",
				rc.name, killRes.SinkTuples, id, co.Completed())
			res2, err := e.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(res2.Errors) != 0 {
				t.Fatalf("recovery run errors: %v", res2.Errors)
			}
			if d := diffMultisets(refSink.got, sink.got); d != "" {
				t.Fatalf("recovered output differs from failure-free output: %s\n(failure-free %d distinct keys, recovered %d)",
					d, len(refSink.got), len(sink.got))
			}
		})
	}
}
