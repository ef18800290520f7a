package apps

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
	"briskstream/internal/graph"
	"briskstream/internal/profile"
	"briskstream/internal/tuple"
	"briskstream/internal/vec"
	"briskstream/internal/window"
)

// wcVocabulary is the word pool for generated sentences. Realistic word
// lengths matter: the sentence tuple spans multiple cache lines, which
// is why the Splitter's remote fetch enjoys a prefetch discount in
// Table 3 while the single-line Counter tuple does not.
var wcVocabulary = []string{
	"stream", "process", "socket", "memory", "tuple", "operator", "plan",
	"latency", "remote", "local", "numa", "core", "thread", "queue",
	"batch", "window", "shuffle", "branch", "bound", "model", "rate",
	"output", "input", "scale", "brisk", "storm", "flink", "graph",
	"vertex", "edge", "cache", "line",
}

// wcVocabSyms pre-interns the vocabulary: words are the canonical
// low-cardinality hot strings, so WC and TW route and count them as
// symbols — a 4-byte compare, no copy, no boxing.
var wcVocabSyms = tuple.InternSyms(wcVocabulary...)

// wcSpoutSeq gives each WC spout replica a distinct deterministic seed.
var wcSpoutSeq atomic.Int64

// WC event-time parameters: each sentence advances the synthetic event
// clock by one millisecond, the spout punctuates a watermark every
// wcWatermarkEvery sentences, and the counter aggregates per word over
// tumbling windows of wcWindow event-milliseconds.
const (
	wcWindow         = 1024
	wcWatermarkEvery = 64
)

// wcSpout generates ten-word sentences on the synthetic event clock. It
// is replayable: the stream is a pure function of (seed, offset), so
// SeekTo regenerates the random draws of the first n sentences and the
// replay emits exactly the sentences the original run emitted.
type wcSpout struct {
	seed  int64
	r     *rand.Rand
	words []string
	buf   []byte // reusable sentence buffer: Next emits without allocating
	et    int64
}

func newWCSpout(seed int64) *wcSpout {
	return &wcSpout{seed: seed, r: rng(seed), words: make([]string, 10)}
}

// draw advances the stream one sentence: fills the word buffer and
// ticks the event clock. It is the unit of replay.
func (s *wcSpout) draw() {
	for i := range s.words {
		s.words[i] = wcVocabulary[s.r.Intn(len(wcVocabulary))]
	}
	s.et++
}

// Next implements engine.Spout.
func (s *wcSpout) Next(c engine.Collector) error {
	s.draw()
	s.buf = s.buf[:0]
	for i, w := range s.words {
		if i > 0 {
			s.buf = append(s.buf, ' ')
		}
		s.buf = append(s.buf, w...)
	}
	out := c.Borrow()
	out.AppendStrBytes(s.buf)
	out.Event = s.et
	c.Send(out)
	if s.et%wcWatermarkEvery == 0 {
		// Events are in order, so the last emitted event time is a
		// sound low watermark.
		c.EmitWatermark(s.et)
	}
	return nil
}

// Offset implements engine.ReplayableSpout.
func (s *wcSpout) Offset() int64 { return s.et }

// SeekTo implements engine.ReplayableSpout by regenerating the stream
// prefix, leaving the random state exactly where the original run's
// offset-th sentence left it.
func (s *wcSpout) SeekTo(offset int64) error {
	if offset < 0 {
		return fmt.Errorf("apps: wc spout seek to %d", offset)
	}
	s.r = rng(s.seed)
	s.et = 0
	for s.et < offset {
		s.draw()
	}
	return nil
}

// wcParser drops invalid (empty) sentences, selectivity 1 on this
// workload, with a selection-vector filter: one pass marks the
// surviving rows, one pass forwards them — dropped rows are never
// materialized. sel is its selection vector, reused across batches.
type wcParser struct {
	one engine.OneRow
	sel []int32
}

func (p *wcParser) Process(c engine.Collector, t *tuple.Tuple) error { return p.one.Process(p, c, t) }

func (p *wcParser) ProcessBatch(c engine.Collector, b *tuple.Batch) error {
	p.sel = vec.SelectStrNonEmpty(b, 0, p.sel[:0])
	vec.ForwardSel(c, b, p.sel, tuple.DefaultStreamID)
	return nil
}

// wcSplitter tokenizes each sentence in place and emits every word as
// an interned symbol: no strings.Fields slice, no per-word boxing — the
// whole split path is allocation-free. It reads the sentence column
// straight out of the batch arena (one contiguous byte run per batch),
// interns through its own SymCache (one per task, so no locking) and
// puts each word straight into the output batch with its source row's
// metadata.
type wcSplitter struct {
	syms tuple.SymCache // first: keeps the cache's entries line-aligned
	one  engine.OneRow
}

func (s *wcSplitter) Process(c engine.Collector, t *tuple.Tuple) error { return s.one.Process(s, c, t) }

func (s *wcSplitter) ProcessBatch(c engine.Collector, b *tuple.Batch) error {
	n := b.Len()
	for r := 0; r < n; r++ {
		sentence := b.Str(0, r)
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
			out := c.Out(tuple.DefaultStreamID)
			out.PutSym(s.syms.Intern(sentence[start:i]))
			out.EndRowFrom(b, r)
		}
	}
	return nil
}

// WordCount builds the WC application of Figure 2: Spout emits sentences
// of ten random words (stamped with a synthetic event time and
// punctuated with watermarks); Parser drops invalid tuples (selectivity
// 1 on this workload); Splitter splits each sentence into words
// (selectivity 10); Counter aggregates occurrences per word over
// tumbling event-time windows (fields-partitioned so one word is always
// counted by the same replica) and emits (word, count) per closed
// window; Sink counts results.
//
// The declared graph/model statistics keep the paper's calibration (a
// per-word running count, selectivity 1): the performance model
// reproduces Table 3/4 as published, while the executable counter
// demonstrates the windowed path on the same topology shape.
func WordCount() *App {
	g := graph.New("WC")
	mustNode(g, &graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	mustNode(g, &graph.Node{Name: "parser", Selectivity: map[string]float64{"default": 1}})
	mustNode(g, &graph.Node{Name: "splitter", Selectivity: map[string]float64{"default": 10}})
	mustNode(g, &graph.Node{Name: "counter", Selectivity: map[string]float64{"default": 1}})
	mustNode(g, &graph.Node{Name: "sink", IsSink: true})
	mustEdge(g, graph.Edge{From: "spout", To: "parser", Stream: "default"})
	mustEdge(g, graph.Edge{From: "parser", To: "splitter", Stream: "default"})
	mustEdge(g, graph.Edge{From: "splitter", To: "counter", Stream: "default", Partitioning: graph.Fields, KeyField: 0})
	mustEdge(g, graph.Edge{From: "counter", To: "sink", Stream: "default"})

	return &App{
		Name:  "WC",
		Graph: mustValid(g),
		Spouts: map[string]func() engine.Spout{
			"spout": func() engine.Spout { return newWCSpout(1000 + wcSpoutSeq.Add(1)) },
		},
		Operators: map[string]func() engine.Operator{
			"parser":   func() engine.Operator { return &wcParser{} },
			"splitter": func() engine.Operator { return &wcSplitter{} },
			"counter": func() engine.Operator {
				type count struct{ n int64 }
				return window.New(window.Op[count]{
					KeyField: 0,
					Size:     wcWindow,
					Init:     func(a *count) { a.n = 0 },
					Add:      func(a *count, b *tuple.Batch, r int) { a.n++ },
					Emit: func(c engine.Collector, key tuple.Key, w window.Span, a *count) {
						out := c.Borrow()
						out.AppendKey(key)
						out.AppendInt(a.n)
						out.Event = w.End
						c.Send(out)
					},
					Save: func(enc *checkpoint.Encoder, a *count) { enc.Int64(a.n) },
					Load: func(dec *checkpoint.Decoder, a *count) error { a.n = dec.Int64(); return nil },
				})
			},
			"sink": func() engine.Operator { return nopSink{} },
		},
		Schemas: map[string]map[string]*tuple.Schema{
			"spout":    {"default": tuple.NewSchema(tuple.StrField("sentence"))},
			"parser":   {"default": tuple.NewSchema(tuple.StrField("sentence"))},
			"splitter": {"default": tuple.NewSchema(tuple.SymField("word"))},
			"counter":  {"default": tuple.NewSchema(tuple.SymField("word"), tuple.IntField("count"))},
		},
		// Calibration: Splitter and Counter Te are the paper's measured
		// local values (Table 3: 1612.8 and 612.3 ns/tuple). Sentence
		// tuples are ~70 B (multi-line), word tuples ~16 B (single
		// line). With these statistics RLAS on Server A lands near the
		// paper's 96.4M events/s (Table 4).
		Stats: profile.Set{
			"spout":    {Te: 450, M: 140, N: 70, Selectivity: map[string]float64{"default": 1}},
			"parser":   {Te: 350, M: 140, N: 70, Selectivity: map[string]float64{"default": 1}},
			"splitter": {Te: 1612.8, M: 300, N: 70, Selectivity: map[string]float64{"default": 10}},
			"counter":  {Te: 612.3, M: 80, N: 16, Selectivity: map[string]float64{"default": 1}},
			"sink":     {Te: 100, M: 48, N: 24, Selectivity: map[string]float64{}},
		},
	}
}
