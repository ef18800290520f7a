// Command checkpoint demonstrates BriskStream's fault tolerance on the
// public API: a windowed word count runs with periodic aligned
// checkpoints persisted to a file store, "crashes" mid-stream (the run
// is cut off without flushing anything), and a second run resumes from
// the latest completed checkpoint — restoring the window and sink state
// and replaying the source from its recorded offset. The demo verifies
// that the recovered output is exactly the output of a run that never
// failed.
//
//	go run ./examples/checkpoint
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"briskstream"
)

// sentences is the finite, deterministic input stream. Replay needs
// determinism: after SeekTo(n), the source must emit exactly what it
// would have emitted after its first n sentences.
var sentences = []string{
	"the quick brown fox",
	"jumps over the lazy dog",
	"the dog barks",
	"a fox is quick",
}

const (
	totalSentences = 400000
	window         = 1024 // event-time units per tumbling window
)

// source emits one sentence per event-millisecond and implements
// briskstream.ReplayableSpout: Offset/SeekTo are just the cursor.
type source struct{ i int64 }

func (s *source) Next(c briskstream.Collector) error {
	if s.i >= totalSentences {
		return io.EOF
	}
	s.i++
	out := c.Borrow()
	out.AppendStr(sentences[s.i%int64(len(sentences))])
	out.Event = s.i
	c.Send(out)
	if s.i%64 == 0 {
		c.EmitWatermark(s.i)
	}
	return nil
}

func (s *source) Offset() int64             { return s.i }
func (s *source) SeekTo(offset int64) error { s.i = offset; return nil }

// collectSink records (word, count, window-end) results and snapshots
// the collected multiset, so recovered output is comparable
// tuple-for-tuple with a failure-free run.
type collectSink struct {
	got map[string]int64
}

func (s *collectSink) Process(c briskstream.Collector, t *briskstream.Tuple) error {
	s.got[fmt.Sprintf("%s=%d@%d", t.Str(0), t.Int(1), t.Event)]++
	return nil
}

func (s *collectSink) Snapshot(enc *briskstream.SnapshotEncoder) error {
	briskstream.SaveMapOrdered(enc, s.got,
		func(e *briskstream.SnapshotEncoder, k string) { e.String(k) },
		func(e *briskstream.SnapshotEncoder, v int64) { e.Int64(v) })
	return nil
}

func (s *collectSink) Restore(dec *briskstream.SnapshotDecoder) error {
	return briskstream.LoadMapOrdered(dec, s.got,
		(*briskstream.SnapshotDecoder).String,
		(*briskstream.SnapshotDecoder).Int64)
}

// build assembles the topology with fresh operator instances (as a
// restarted process would) and returns the sink for inspection.
func build() (*briskstream.Topology, *collectSink) {
	sink := &collectSink{got: map[string]int64{}}
	t := briskstream.NewTopology("checkpointed-wc")
	t.Spout("source", func() briskstream.Spout { return &source{} })
	t.Operator("split", func() briskstream.Operator {
		return briskstream.OperatorFunc(func(c briskstream.Collector, tp *briskstream.Tuple) error {
			// tp.Str returns a view into the tuple arena; interning each
			// word gives the counter a stable symbol key with no copy.
			line := tp.Str(0)
			start := 0
			for i := 0; i <= len(line); i++ {
				if i == len(line) || line[i] == ' ' {
					if i > start {
						out := c.Borrow()
						out.AppendSym(briskstream.InternSym(line[start:i]))
						c.Send(out)
					}
					start = i + 1
				}
			}
			return nil
		})
	}).Subscribe("source", briskstream.Shuffle)
	t.Operator("count", func() briskstream.Operator {
		type acc struct{ n int64 }
		return briskstream.NewWindow(briskstream.WindowOp[acc]{
			KeyField: 0,
			Size:     window,
			Init:     func(a *acc) { a.n = 0 },
			Add:      func(a *acc, b *briskstream.Batch, r int) { a.n++ },
			Emit: func(c briskstream.Collector, key briskstream.Key, w briskstream.WindowSpan, a *acc) {
				out := c.Borrow()
				out.AppendKey(key)
				out.AppendInt(a.n)
				out.Event = w.End
				c.Send(out)
			},
			Save: func(enc *briskstream.SnapshotEncoder, a *acc) { enc.Int64(a.n) },
			Load: func(dec *briskstream.SnapshotDecoder, a *acc) error { a.n = dec.Int64(); return nil },
		})
	}).Subscribe("split", briskstream.FieldsKey(0)).Parallelism(2)
	t.Sink("sink", func() briskstream.Operator { return sink }).Subscribe("count", briskstream.Global)
	return t, sink
}

func main() {
	// Failure-free reference.
	refTopo, refSink := build()
	if _, err := refTopo.Run(briskstream.RunConfig{}); err != nil {
		log.Fatal(err)
	}

	// Checkpoints go to a file store: they survive the "crash" below
	// (and would survive a real process death).
	dir, err := os.MkdirTemp("", "briskstream-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := briskstream.NewFileCheckpointStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	co := briskstream.NewCheckpointCoordinator(store)

	// "Crash": the duration bound cuts the run off mid-stream — no final
	// watermark, no window flush, exactly what a failure looks like.
	crashTopo, crashSink := build()
	if _, err := crashTopo.Run(briskstream.RunConfig{
		Duration:           300 * time.Millisecond,
		Checkpoint:         co,
		CheckpointInterval: 50 * time.Millisecond,
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crashed run:   %6d results collected, %d checkpoints completed (dir %s)\n",
		len(crashSink.got), co.Completed(), dir)

	// Recovery: fresh operator instances, same coordinator. Resume
	// restores every task from the latest completed checkpoint and
	// replays the source from its recorded offset.
	recTopo, recSink := build()
	if _, err := recTopo.Run(briskstream.RunConfig{Checkpoint: co, Resume: true}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered run: %6d results collected\n", len(recSink.got))

	// The point of the exercise: recovered output == failure-free output.
	if len(recSink.got) != len(refSink.got) {
		log.Fatalf("MISMATCH: recovered %d distinct results, failure-free %d", len(recSink.got), len(refSink.got))
	}
	for k, n := range refSink.got {
		if recSink.got[k] != n {
			log.Fatalf("MISMATCH at %q: recovered %d, failure-free %d", k, recSink.got[k], n)
		}
	}
	fmt.Println("recovered output is identical to the failure-free run ✓")
}
