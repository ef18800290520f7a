package main

// The adaptive column of bench-json: a word-count stream whose sentence
// length (splitter selectivity) jumps 2 -> 10 a quarter of the way in,
// drained twice — once at the plan optimized for the pre-shift
// statistics held static for the whole run, once under the autoscaler
// (live profiling -> advisor -> barrier/re-shard/restore rollover). The
// comparable number is effective ingest: distinct stream tuples over
// wall time, with the autoscaled run paying its own migration and
// replay cost.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	briskstream "briskstream"
)

const (
	adaptiveBenchTuples = 300_000
	adaptiveBenchPivot  = 75_000
)

var adaptiveVocab = []string{
	"stream", "process", "socket", "memory", "tuple", "operator",
	"plan", "latency", "remote", "local", "numa", "core",
	"thread", "queue", "batch", "window",
}

// adaptiveSpout is the deterministic skew-shift source (pure function
// of its offset, hence replayable through a rescale).
type adaptiveSpout struct {
	limit, pivot int64
	off          int64
	buf          []byte
}

func (s *adaptiveSpout) Next(c briskstream.Collector) error {
	if s.off >= s.limit {
		return io.EOF
	}
	off := s.off
	s.off++
	words := 2
	if off >= s.pivot {
		words = 10
	}
	s.buf = s.buf[:0]
	for i := 0; i < words; i++ {
		if i > 0 {
			s.buf = append(s.buf, ' ')
		}
		s.buf = append(s.buf, adaptiveVocab[(off*7+int64(i)*13)%int64(len(adaptiveVocab))]...)
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

func (s *adaptiveSpout) Offset() int64 { return s.off }

func (s *adaptiveSpout) SeekTo(off int64) error {
	if off < 0 || off > s.limit {
		return fmt.Errorf("adaptiveSpout: seek to %d", off)
	}
	s.off = off
	return nil
}

// adaptiveBenchTopology assembles the skew word-count on the public
// API: limit bounds the stream (the obs demo passes an effectively
// endless one and relies on RunConfig.Duration), pivot is where the
// sentence length jumps.
func adaptiveBenchTopology(limit, pivot int64) *briskstream.Topology {
	t := briskstream.NewTopology("adaptive-wc")
	t.Spout("src", func() briskstream.Spout {
		return &adaptiveSpout{limit: limit, pivot: pivot}
	}).Emits(briskstream.DefaultStream, briskstream.StrField("sentence"))
	t.Operator("split", func() briskstream.Operator {
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
				if i == start {
					continue
				}
				out := c.Borrow()
				out.AppendStr(sentence[start:i])
				c.Send(out)
			}
			return nil
		})
	}).Subscribe("src", briskstream.Shuffle).
		Selectivity(briskstream.DefaultStream, 2).
		Emits(briskstream.DefaultStream, briskstream.StrField("word"))
	t.Operator("count", func() briskstream.Operator {
		type cnt struct {
			n    int64
			sink uint64
		}
		return briskstream.NewWindow(briskstream.WindowOp[cnt]{
			KeyField: 0,
			Size:     512,
			Init:     func(a *cnt) { *a = cnt{} },
			Add: func(a *cnt, b *briskstream.Batch, r int) {
				// Synthetic per-word cost so the counter is the genuine
				// bottleneck once the long sentences arrive.
				h := uint64(1469598103934665603)
				for i := 0; i < 96; i++ {
					h = (h ^ uint64(i)) * 1099511628211
				}
				a.sink ^= h
				a.n++
			},
			Emit: func(c briskstream.Collector, key briskstream.Key, w briskstream.WindowSpan, a *cnt) {
				out := c.Borrow()
				out.AppendKey(key)
				out.AppendInt(a.n)
				out.Event = w.End
				c.Send(out)
			},
			Save: func(enc *briskstream.SnapshotEncoder, a *cnt) { enc.Int64(a.n) },
			Load: func(dec *briskstream.SnapshotDecoder, a *cnt) error { a.n = dec.Int64(); return nil },
		})
	}).Subscribe("split", briskstream.FieldsKey(0)).
		Emits(briskstream.DefaultStream, briskstream.StrField("word"), briskstream.IntField("n"))
	t.Sink("sink", func() briskstream.Operator {
		return briskstream.OperatorFunc(func(c briskstream.Collector, tp *briskstream.Tuple) error { return nil })
	}).Subscribe("count", briskstream.Shuffle)
	return t
}

// adaptiveBenchStats are the pre-shift statistics both runs are planned
// with; the shift makes them stale, which is the point.
func adaptiveBenchStats() map[string]briskstream.OperatorStats {
	return map[string]briskstream.OperatorStats{
		"src":   {ExecNs: 450, MemoryBytes: 64, TupleBytes: 24},
		"split": {ExecNs: 400, MemoryBytes: 128, TupleBytes: 24},
		"count": {ExecNs: 150, MemoryBytes: 64, TupleBytes: 12},
		"sink":  {ExecNs: 100, MemoryBytes: 32, TupleBytes: 20, Selectivity: map[string]float64{}},
	}
}

// adaptiveBenchRow is the static-vs-autoscaled comparison in the
// bench-json report.
type adaptiveBenchRow struct {
	StreamTuples     int64   `json:"stream_tuples"`
	StaticInputTPS   float64 `json:"static_input_tps"`
	AdaptiveInputTPS float64 `json:"adaptive_input_tps"`
	Rescales         int     `json:"rescales"`
	GainPct          float64 `json:"gain_pct"`
}

// adaptiveBench measures the rate-shift scenario.
func adaptiveBench() (*adaptiveBenchRow, error) {
	machine := briskstream.SyntheticMachine("bench", 2, max(2, runtime.GOMAXPROCS(0)/2))
	stats := adaptiveBenchStats()

	// Static: the stale plan held for the whole run (spout/sink pinned
	// to 1, like the autoscaler's own pinning).
	static := adaptiveBenchTopology(adaptiveBenchTuples, adaptiveBenchPivot)
	p, err := static.Optimize(briskstream.OptimizeConfig{Machine: machine, Stats: stats, FixedSpouts: true})
	if err != nil {
		return nil, fmt.Errorf("adaptive bench optimize: %w", err)
	}
	repl := make(map[string]int, len(p.Replication))
	for op, n := range p.Replication {
		repl[op] = n
	}
	repl["src"], repl["sink"] = 1, 1
	resS, err := static.Run(briskstream.RunConfig{Replication: repl})
	if err != nil {
		return nil, fmt.Errorf("adaptive bench static run: %w", err)
	}
	if len(resS.Errors) != 0 {
		return nil, fmt.Errorf("adaptive bench static run: %v", resS.Errors[0])
	}

	// Autoscaled: same topology, same stale statistics, live loop on.
	auto := adaptiveBenchTopology(adaptiveBenchTuples, adaptiveBenchPivot)
	resA, err := auto.Run(briskstream.RunConfig{Adaptive: &briskstream.AdaptiveConfig{
		Machine:     machine,
		Stats:       stats,
		Interval:    50 * time.Millisecond,
		SampleEvery: 32,
		MaxRescales: 2,
	}})
	if err != nil {
		return nil, fmt.Errorf("adaptive bench autoscaled run: %w", err)
	}
	if len(resA.Errors) != 0 {
		return nil, fmt.Errorf("adaptive bench autoscaled run: %v", resA.Errors[0])
	}

	row := &adaptiveBenchRow{StreamTuples: adaptiveBenchTuples, Rescales: resA.Rescales}
	if s := resS.Duration.Seconds(); s > 0 {
		row.StaticInputTPS = float64(adaptiveBenchTuples) / s
	}
	if s := resA.Duration.Seconds(); s > 0 {
		row.AdaptiveInputTPS = float64(adaptiveBenchTuples) / s
	}
	if row.StaticInputTPS > 0 {
		row.GainPct = (row.AdaptiveInputTPS - row.StaticInputTPS) / row.StaticInputTPS * 100
	}
	fmt.Fprintf(os.Stderr, "adaptive: static %.0f in-tuples/s, autoscaled %.0f (%+.1f%%, %d rescales)\n",
		row.StaticInputTPS, row.AdaptiveInputTPS, row.GainPct, row.Rescales)
	return row, nil
}
