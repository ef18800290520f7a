// Adaptive: the closed loop of online plan maintenance (the dynamic
// scenario of Section 5.3), end to end on the public API. A word-count
// variant runs under RunConfig.Adaptive: the engine live-profiles
// itself, the advisor watches the measured statistics, and when the
// workload changes a quarter of the way in (sentences grow from 2 words
// to 10, so the splitter's selectivity drifts 5x from its profile) the
// autoscaler re-optimizes and rolls the running engine onto the new
// plan — aligned barrier, state re-shard, source replay — without
// dropping or duplicating a single tuple.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"io"
	"log"
	"time"

	briskstream "briskstream"
)

const (
	streamTuples = 400_000 // bounded stream: the run ends at EOF
	pivot        = 100_000 // where the workload changes
)

var vocabulary = []string{
	"stream", "process", "socket", "memory", "tuple", "operator",
	"plan", "latency", "remote", "local", "numa", "core",
	"thread", "queue", "batch", "window",
}

// spout emits 2-word sentences before the pivot and 10-word sentences
// after. The stream is a pure function of the offset — the property
// that makes it replayable through a rescale.
type spout struct {
	off int64
	buf []byte
}

func (s *spout) Next(c briskstream.Collector) error {
	if s.off >= streamTuples {
		return io.EOF
	}
	off := s.off
	s.off++
	words := 2
	if off >= pivot {
		words = 10
	}
	s.buf = s.buf[:0]
	for i := 0; i < words; i++ {
		if i > 0 {
			s.buf = append(s.buf, ' ')
		}
		s.buf = append(s.buf, vocabulary[(off*7+int64(i)*13)%int64(len(vocabulary))]...)
	}
	out := c.Borrow()
	out.AppendStrBytes(s.buf)
	out.Event = off + 1
	c.Send(out)
	if (off+1)%64 == 0 {
		c.EmitWatermark(off + 1)
	}
	return nil
}

func (s *spout) Offset() int64 { return s.off }

func (s *spout) SeekTo(off int64) error {
	s.off = off
	return nil
}

func buildTopology() *briskstream.Topology {
	t := briskstream.NewTopology("adaptive-wc")
	t.Spout("spout", func() briskstream.Spout { return &spout{} }).
		Emits(briskstream.DefaultStream, briskstream.StrField("sentence"))
	t.Operator("splitter", func() briskstream.Operator {
		return briskstream.OperatorFunc(func(c briskstream.Collector, tp *briskstream.Tuple) error {
			sentence := tp.Str(0)
			for i := 0; i < len(sentence); {
				for i < len(sentence) && sentence[i] == ' ' {
					i++
				}
				start := i
				for i < len(sentence) && sentence[i] != ' ' {
					i++
				}
				if i > start {
					out := c.Borrow()
					out.AppendStr(sentence[start:i])
					c.Send(out)
				}
			}
			return nil
		})
	}).Subscribe("spout", briskstream.Shuffle).
		Selectivity(briskstream.DefaultStream, 2).
		Emits(briskstream.DefaultStream, briskstream.StrField("word"))
	t.Operator("counter", func() briskstream.Operator {
		type cnt struct{ n int64 }
		return briskstream.NewWindow(briskstream.WindowOp[cnt]{
			KeyField: 0,
			Size:     512,
			Init:     func(a *cnt) { a.n = 0 },
			Add:      func(a *cnt, b *briskstream.Batch, r int) { a.n++ },
			Emit: func(c briskstream.Collector, key briskstream.Key, w briskstream.WindowSpan, a *cnt) {
				out := c.Borrow()
				out.AppendKey(key)
				out.AppendInt(a.n)
				out.Event = w.End
				c.Send(out)
			},
			// Save/Load make the counter snapshottable — and therefore
			// re-shardable when the autoscaler changes its replication.
			Save: func(enc *briskstream.SnapshotEncoder, a *cnt) { enc.Int64(a.n) },
			Load: func(dec *briskstream.SnapshotDecoder, a *cnt) error { a.n = dec.Int64(); return nil },
		})
	}).Subscribe("splitter", briskstream.FieldsKey(0)).
		Emits(briskstream.DefaultStream, briskstream.StrField("word"), briskstream.IntField("count"))
	t.Sink("sink", func() briskstream.Operator {
		return briskstream.OperatorFunc(func(c briskstream.Collector, tp *briskstream.Tuple) error { return nil })
	}).Subscribe("counter", briskstream.Shuffle)
	return t
}

func main() {
	topo := buildTopology()

	// The baseline statistics describe the pre-pivot workload (short
	// sentences, cheap counter); the pivot makes them stale mid-run.
	stats := map[string]briskstream.OperatorStats{
		"spout":    {ExecNs: 450, MemoryBytes: 140, TupleBytes: 24},
		"splitter": {ExecNs: 400, MemoryBytes: 300, TupleBytes: 24},
		"counter":  {ExecNs: 300, MemoryBytes: 80, TupleBytes: 12},
		"sink":     {ExecNs: 100, MemoryBytes: 48, TupleBytes: 20, Selectivity: map[string]float64{}},
	}

	fmt.Println("running under the autoscaler (workload shifts 2 -> 10 words/sentence)...")
	res, err := topo.Run(briskstream.RunConfig{Adaptive: &briskstream.AdaptiveConfig{
		Machine:     briskstream.SyntheticMachine("demo", 2, 8),
		Stats:       stats,
		Interval:    50 * time.Millisecond,
		MaxRescales: 2,
		OnDecision: func(d briskstream.AdaptiveDecision) {
			switch {
			case d.Err != nil:
				fmt.Printf("  advisor: rescale attempt failed: %v\n", d.Err)
			case d.Rescaled:
				fmt.Printf("  advisor: drift %v -> RESCALE to %v (predicted %.1f -> %.1f K/s)\n",
					d.Drifted, d.Replication, d.CurrentPredicted/1000, d.NewPredicted/1000)
			case d.Replication != nil:
				fmt.Printf("  advisor: drift %v, plan unchanged after pinning (%v)\n", d.Drifted, d.Replication)
			default:
				fmt.Printf("  advisor: drift %v, keeping the current plan (%.1f K/s predicted)\n",
					d.Drifted, d.CurrentPredicted/1000)
			}
		},
	}})
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Errors) != 0 {
		log.Fatal(res.Errors[0])
	}
	fmt.Printf("\ndrained %d sentences in %v (%d online rescale(s), %d sink tuples)\n",
		streamTuples, res.Duration.Round(time.Millisecond), res.Rescales, res.SinkTuples)
}
