package briskstream

// End-to-end autoscaler test: a word-count stream whose sentence length
// (splitter selectivity) shifts mid-run. The adaptive run starts from a
// plan optimized for deliberately stale statistics, live-profiles the
// engine, detects the drift, and rolls the engine onto the re-optimized
// plan via barrier → snapshot → re-shard → restore — and its final
// output must equal a static failure-free run's output exactly.

import (
	"fmt"
	"io"
	"testing"
	"time"
)

var skewVocab = []string{
	"stream", "process", "socket", "memory", "tuple", "operator",
	"plan", "latency", "remote", "local", "numa", "core",
	"thread", "queue", "batch", "window",
}

// skewSpout emits short sentences (2 words) before pivot and long ones
// (10 words) after. The stream is a pure function of the offset, so
// replay after a restore regenerates exactly the original suffix.
type skewSpout struct {
	limit, pivot int64
	off          int64
	buf          []byte
}

func (s *skewSpout) words(off int64) int {
	if off < s.pivot {
		return 2
	}
	return 10
}

func (s *skewSpout) Next(c Collector) error {
	if s.off >= s.limit {
		return io.EOF
	}
	off := s.off
	s.off++
	s.buf = s.buf[:0]
	for i := 0; i < s.words(off); i++ {
		if i > 0 {
			s.buf = append(s.buf, ' ')
		}
		s.buf = append(s.buf, skewVocab[(off*7+int64(i)*13)%int64(len(skewVocab))]...)
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

func (s *skewSpout) Offset() int64 { return s.off }

func (s *skewSpout) SeekTo(off int64) error {
	if off < 0 || off > s.limit {
		return fmt.Errorf("skewSpout: seek to %d", off)
	}
	s.off = off
	return nil
}

// multisetSink records every (word, window, count) emission; it
// snapshots so a restored run discards post-cut receipts.
type multisetSink struct {
	got map[string]int64
}

func (s *multisetSink) Process(c Collector, tp *Tuple) error {
	s.got[fmt.Sprintf("%s@%d=%d", tp.Str(0), tp.Event, tp.Int(1))]++
	return nil
}

func (s *multisetSink) Snapshot(enc *SnapshotEncoder) error {
	SaveMapOrdered(enc, s.got,
		func(e *SnapshotEncoder, k string) { e.String(k) },
		func(e *SnapshotEncoder, v int64) { e.Int64(v) })
	return nil
}

func (s *multisetSink) Restore(dec *SnapshotDecoder) error {
	return LoadMapOrdered(dec, s.got,
		func(d *SnapshotDecoder) string { return d.String() },
		func(d *SnapshotDecoder) int64 { return d.Int64() })
}

// buildSkewWC assembles the topology on the public API: spout →
// splitter → windowed counter (keyed by word) → recording sink.
func buildSkewWC(limit, pivot int64, sink *multisetSink) *Topology {
	t := NewTopology("skew-wc")
	t.Spout("src", func() Spout { return &skewSpout{limit: limit, pivot: pivot} }).
		Emits(DefaultStream, StrField("sentence"))
	t.Operator("split", func() Operator {
		return OperatorFunc(func(c Collector, tp *Tuple) error {
			sentence := tp.Str(0)
			for i := 0; i < len(sentence); {
				for i < len(sentence) && sentence[i] == ' ' {
					i++
				}
				start := i
				for i < len(sentence) && sentence[i] != ' ' {
					i++
				}
				if i == start {
					continue
				}
				out := c.Borrow()
				out.AppendStr(sentence[start:i])
				c.Send(out)
			}
			return nil
		})
	}).Subscribe("src", Shuffle).Selectivity(DefaultStream, 2).
		Emits(DefaultStream, StrField("word"))
	t.Operator("count", func() Operator {
		type cnt struct {
			n    int64
			sink uint64 // busy-work accumulator; not part of the state
		}
		return NewWindow(WindowOp[cnt]{
			KeyField: 0,
			Size:     512,
			Init:     func(a *cnt) { *a = cnt{} },
			Add: func(a *cnt, b *Batch, r int) {
				// Synthetic per-tuple cost: makes the counter the measured
				// bottleneck once the long sentences arrive, so the
				// re-optimized plan genuinely wants more counter replicas.
				h := uint64(1469598103934665603)
				for i := 0; i < 96; i++ {
					h = (h ^ uint64(i)) * 1099511628211
				}
				a.sink ^= h
				a.n++
			},
			Emit: func(c Collector, key Key, w WindowSpan, a *cnt) {
				out := c.Borrow()
				out.AppendKey(key)
				out.AppendInt(a.n)
				out.Event = w.End
				c.Send(out)
			},
			Save: func(enc *SnapshotEncoder, a *cnt) { enc.Int64(a.n) },
			Load: func(dec *SnapshotDecoder, a *cnt) error { a.n = dec.Int64(); return nil },
		})
	}).Subscribe("split", FieldsKey(0)).
		Emits(DefaultStream, StrField("word"), IntField("n"))
	t.Sink("sink", func() Operator { return sink }).Subscribe("count", Shuffle)
	return t
}

// skewStats are the deliberately stale baseline statistics the adaptive
// run is planned with: short sentences and a cheap counter. The live
// regime (selectivity 10, expensive counter) drifts far past them.
func skewStats() map[string]OperatorStats {
	return map[string]OperatorStats{
		"src":   {ExecNs: 450, MemoryBytes: 64, TupleBytes: 24},
		"split": {ExecNs: 400, MemoryBytes: 128, TupleBytes: 24},
		"count": {ExecNs: 150, MemoryBytes: 64, TupleBytes: 12},
		"sink":  {ExecNs: 100, MemoryBytes: 32, TupleBytes: 20, Selectivity: map[string]float64{}},
	}
}

func TestAdaptiveRescaleOutputEqualsStatic(t *testing.T) {
	const limit, pivot = 80000, 20000

	// Static failure-free reference.
	refSink := &multisetSink{got: map[string]int64{}}
	ref := buildSkewWC(limit, pivot, refSink)
	refRes, err := ref.Run(RunConfig{Replication: map[string]int{"src": 1, "split": 2, "count": 2, "sink": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(refRes.Errors) != 0 {
		t.Fatalf("reference run errors: %v", refRes.Errors)
	}
	if len(refSink.got) == 0 {
		t.Fatal("reference run produced no output")
	}

	// Adaptive run: planned with the stale statistics, live-profiled,
	// rescaled online when the advisor clears the gain threshold.
	var decisions []AdaptiveDecision
	adSink := &multisetSink{got: map[string]int64{}}
	ad := buildSkewWC(limit, pivot, adSink)
	res, err := ad.Run(RunConfig{Adaptive: &AdaptiveConfig{
		Machine:     SyntheticMachine("autoscale", 2, 8),
		Stats:       skewStats(),
		Interval:    15 * time.Millisecond,
		Drift:       0.2,
		Gain:        0.05,
		MaxRescales: 2,
		OnDecision:  func(d AdaptiveDecision) { decisions = append(decisions, d) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("adaptive run errors: %v", res.Errors)
	}
	for _, d := range decisions {
		t.Logf("decision: rescaled=%v repl=%v cur=%.0f new=%.0f drifted=%v err=%v",
			d.Rescaled, d.Replication, d.CurrentPredicted, d.NewPredicted, d.Drifted, d.Err)
	}
	if res.Rescales < 1 {
		t.Fatalf("autoscaler performed no rescale (want >= 1); %d decisions recorded", len(decisions))
	}
	if d := diffStringMultisets(refSink.got, adSink.got); d != "" {
		t.Fatalf("adaptive output differs from static output: %s\n(static %d distinct, adaptive %d)",
			d, len(refSink.got), len(adSink.got))
	}
}

func TestAdaptiveConfigRequiresInputs(t *testing.T) {
	sink := &multisetSink{got: map[string]int64{}}
	topo := buildSkewWC(100, 50, sink)
	if _, err := topo.Run(RunConfig{Adaptive: &AdaptiveConfig{}}); err == nil {
		t.Fatal("Adaptive without Machine/Stats must fail")
	}
	if _, err := topo.Run(RunConfig{Adaptive: &AdaptiveConfig{Machine: SyntheticMachine("m", 1, 4)}}); err == nil {
		t.Fatal("Adaptive without Stats must fail")
	}
}

// diffStringMultisets reports the first few discrepancies between two
// multisets, or "" when identical.
func diffStringMultisets(want, got map[string]int64) string {
	var diffs []string
	for k, w := range want {
		if g := got[k]; g != w {
			diffs = append(diffs, fmt.Sprintf("%s: want %d got %d", k, w, g))
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: want 0 got %d", k, g))
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	if len(diffs) > 5 {
		diffs = append(diffs[:5], fmt.Sprintf("... and %d more", len(diffs)-5))
	}
	return fmt.Sprintf("%d discrepancies: %v", len(diffs), diffs)
}
