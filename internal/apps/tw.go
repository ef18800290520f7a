package apps

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"

	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
	"briskstream/internal/graph"
	"briskstream/internal/profile"
	"briskstream/internal/tuple"
	"briskstream/internal/window"
)

var twSpoutSeq atomic.Int64

// TW parameters. The spout emits word mentions on a synthetic event
// clock with bursty per-word activity (a hot set rotates every
// twBurstLen events), so mentions of one word cluster into sessions.
// The sessionizer closes a word's session after twGap quiet event-ms;
// the ranker tallies closed sessions over tumbling twRankWindow spans
// and emits the top twK trending words per span.
// twGap sits between the hot-word mention interval (a hot word is
// mentioned every ~7 events while its burst lasts) and the background
// interval (any given word appears in the 20% background traffic every
// ~160 events), so hot bursts form multi-mention sessions while
// background mentions close as near-singletons.
const (
	twGap            = 64
	twRankWindow     = 4096
	twK              = 5
	twBurstLen       = 512
	twHotSet         = 6
	twWatermarkEvery = 32
)

// twRankedID is the interned output stream of the ranker.
var twRankedID = tuple.Intern("ranked")

// twSpout generates bursty word mentions; replayable like wcSpout (the
// hot-set rotation is part of the deterministic draw sequence, so
// SeekTo rebuilds it along with the random state). Words travel as
// pre-interned symbols.
type twSpout struct {
	seed int64
	r    *rand.Rand
	hot  []tuple.Sym
	word tuple.Sym
	et   int64
}

func newTWSpout(seed int64) *twSpout {
	s := &twSpout{seed: seed, r: rng(seed), hot: make([]tuple.Sym, twHotSet)}
	s.rotate()
	return s
}

func (s *twSpout) rotate() {
	for i := range s.hot {
		s.hot[i] = wcVocabSyms[s.r.Intn(len(wcVocabSyms))]
	}
}

func (s *twSpout) draw() {
	if s.et%twBurstLen == 0 {
		s.rotate() // new hot set: old words' sessions go quiet
	}
	if s.r.Intn(100) < 80 {
		s.word = s.hot[s.r.Intn(len(s.hot))] // bursty mention
	} else {
		s.word = wcVocabSyms[s.r.Intn(len(wcVocabSyms))]
	}
	s.et++
}

// Next implements engine.Spout.
func (s *twSpout) Next(c engine.Collector) error {
	s.draw()
	out := c.Borrow()
	out.AppendSym(s.word)
	out.Event = s.et
	c.Send(out)
	if s.et%twWatermarkEvery == 0 {
		c.EmitWatermark(s.et)
	}
	return nil
}

// Offset implements engine.ReplayableSpout.
func (s *twSpout) Offset() int64 { return s.et }

// SeekTo implements engine.ReplayableSpout.
func (s *twSpout) SeekTo(offset int64) error {
	if offset < 0 {
		return fmt.Errorf("apps: tw spout seek to %d", offset)
	}
	s.r = rng(s.seed)
	s.et = 0
	s.rotate() // the constructor's initial rotation is part of the draw sequence
	for s.et < offset {
		s.draw()
	}
	return nil
}

// TrendingWords builds TW, the windowed addition to the benchmark
// suite: sessionized top-K trending words. Spout emits (word) mention
// events with bursty temporal locality; Sessionize groups each word's
// mentions into gap-separated session windows (fields-partitioned so a
// word always sessionizes on the same replica) and emits (word,
// mentions, start, end) per closed session; Rank tallies session
// intensity over tumbling event-time windows and emits the top-K
// (rank, word, mentions) per window (globally, so one replica sees all
// sessions); Sink counts results.
//
// TW is not part of the paper's four-app evaluation (All()); it ships
// as the window subsystem's benchmark and is included in Benchmarks()
// so `briskbench -bench-json` tracks the session/window path.
func TrendingWords() *App {
	g := graph.New("TW")
	mustNode(g, &graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	mustNode(g, &graph.Node{Name: "sessionize", Selectivity: map[string]float64{"default": 0.15}})
	mustNode(g, &graph.Node{Name: "rank", Selectivity: map[string]float64{"ranked": 0.01}})
	mustNode(g, &graph.Node{Name: "sink", IsSink: true})
	mustEdge(g, graph.Edge{From: "spout", To: "sessionize", Stream: "default", Partitioning: graph.Fields, KeyField: 0})
	mustEdge(g, graph.Edge{From: "sessionize", To: "rank", Stream: "default", Partitioning: graph.Global})
	mustEdge(g, graph.Edge{From: "rank", To: "sink", Stream: "ranked"})

	return &App{
		Name:  "TW",
		Graph: mustValid(g),
		Spouts: map[string]func() engine.Spout{
			"spout": func() engine.Spout { return newTWSpout(7000 + twSpoutSeq.Add(1)) },
		},
		Operators: map[string]func() engine.Operator{
			"sessionize": func() engine.Operator {
				type mentions struct{ n int64 }
				return window.NewSession(window.SessionOp[mentions]{
					KeyField: 0,
					Gap:      twGap,
					Init:     func(a *mentions) { a.n = 0 },
					Add:      func(a *mentions, b *tuple.Batch, r int) { a.n++ },
					Merge:    func(dst, src *mentions) { dst.n += src.n },
					Emit: func(c engine.Collector, key tuple.Key, w window.Span, a *mentions) {
						out := c.Borrow()
						out.AppendKey(key)
						out.AppendInt(a.n)
						out.AppendInt(w.Start)
						out.AppendInt(w.End)
						out.Event = w.End
						c.Send(out)
					},
					Save: func(enc *checkpoint.Encoder, a *mentions) { enc.Int64(a.n) },
					Load: func(dec *checkpoint.Decoder, a *mentions) error { a.n = dec.Int64(); return nil },
				})
			},
			"rank": func() engine.Operator {
				type entry struct {
					word     string
					mentions int64
				}
				type board struct{ items []entry }
				return window.New(window.Op[board]{
					KeyField: -1, // global: rank across all words
					Size:     twRankWindow,
					Init:     func(a *board) { a.items = a.items[:0] },
					Add: func(a *board, b *tuple.Batch, r int) {
						// The word is a symbol, so Str returns the stable
						// interned name — safe to keep in the accumulator
						// without cloning.
						a.items = append(a.items, entry{word: b.Str(0, r), mentions: b.Int(1, r)})
					},
					Save: func(enc *checkpoint.Encoder, a *board) {
						// Board entries are encoded in arrival order; the
						// ranker sorts at emit time, but byte-stability
						// needs a canonical order here too.
						sorted := slices.Clone(a.items)
						slices.SortFunc(sorted, func(x, y entry) int {
							if d := cmp.Compare(x.word, y.word); d != 0 {
								return d
							}
							return cmp.Compare(x.mentions, y.mentions)
						})
						enc.Len(len(sorted))
						for _, it := range sorted {
							enc.String(it.word)
							enc.Int64(it.mentions)
						}
					},
					Load: func(dec *checkpoint.Decoder, a *board) error {
						n := dec.Len()
						a.items = a.items[:0]
						for i := 0; i < n && dec.Err() == nil; i++ {
							a.items = append(a.items, entry{word: dec.String(), mentions: dec.Int64()})
						}
						return dec.Err()
					},
					Emit: func(c engine.Collector, _ tuple.Key, w window.Span, a *board) {
						// Sum a word's sessions within the span, then
						// rank by total mentions (ties by word).
						slices.SortFunc(a.items, func(x, y entry) int {
							switch {
							case x.word < y.word:
								return -1
							case x.word > y.word:
								return 1
							}
							return 0
						})
						merged := a.items[:0]
						for _, it := range a.items {
							if n := len(merged); n > 0 && merged[n-1].word == it.word {
								merged[n-1].mentions += it.mentions
							} else {
								merged = append(merged, it)
							}
						}
						slices.SortFunc(merged, func(x, y entry) int {
							switch {
							case x.mentions > y.mentions:
								return -1
							case x.mentions < y.mentions:
								return 1
							case x.word < y.word:
								return -1
							case x.word > y.word:
								return 1
							}
							return 0
						})
						for i, it := range merged {
							if i == twK {
								break
							}
							out := c.Borrow()
							out.Stream = twRankedID
							out.AppendInt(int64(i + 1))
							out.AppendSym(tuple.InternSym(it.word))
							out.AppendInt(it.mentions)
							out.Event = w.End
							c.Send(out)
						}
					},
				})
			},
			"sink": func() engine.Operator { return nopSink{} },
		},
		Schemas: map[string]map[string]*tuple.Schema{
			"spout": {"default": tuple.NewSchema(tuple.SymField("word"))},
			"sessionize": {"default": tuple.NewSchema(
				tuple.SymField("word"), tuple.IntField("mentions"),
				tuple.IntField("start"), tuple.IntField("end"))},
			"rank": {"ranked": tuple.NewSchema(
				tuple.IntField("rank"), tuple.SymField("word"), tuple.IntField("mentions"))},
		},
		// Session maintenance dominates; calibration is indicative (TW
		// has no paper reference row).
		Stats: profile.Set{
			"spout":      {Te: 600, M: 60, N: 30, Selectivity: map[string]float64{"default": 1}},
			"sessionize": {Te: 2400, M: 200, N: 30, Selectivity: map[string]float64{"default": 0.15}},
			"rank":       {Te: 1800, M: 160, N: 50, Selectivity: map[string]float64{"ranked": 0.01}},
			"sink":       {Te: 150, M: 60, N: 40, Selectivity: map[string]float64{}},
		},
	}
}
