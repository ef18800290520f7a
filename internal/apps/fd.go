package apps

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"

	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
	"briskstream/internal/graph"
	"briskstream/internal/profile"
	"briskstream/internal/state"
	"briskstream/internal/tuple"
)

var fdSpoutSeq atomic.Int64

// fdEntitySyms pre-interns the 10000 customer ids (a bounded entity
// population): the entity field travels as a symbol, so Predict's
// per-entity state keys on a dense id and the emit path never formats
// or copies the name.
var fdEntitySyms = func() []tuple.Sym {
	names := make([]string, 10000)
	for i := range names {
		names[i] = fmt.Sprintf("cust-%05d", i)
	}
	return tuple.InternSyms(names...)
}()

// fdSpout generates transaction records; replayable like wcSpout (the
// stream is a pure function of (seed, offset)). The multi-hundred-byte
// record is composed into a reusable buffer and carried as an arena
// string, so generation allocates nothing in steady state.
type fdSpout struct {
	seed   int64
	r      *rand.Rand
	entity tuple.Sym
	record []byte
	n      int64
}

func newFDSpout(seed int64) *fdSpout {
	return &fdSpout{seed: seed, r: rng(seed)}
}

func (s *fdSpout) draw() {
	s.entity = fdEntitySyms[s.r.Intn(len(fdEntitySyms))]
	b := append(s.record[:0], s.entity.Name()...)
	for _, v := range [...]int64{
		int64(s.r.Intn(100000)), int64(s.r.Intn(9999)), int64(s.r.Intn(100)),
		int64(s.r.Intn(24)), int64(s.r.Intn(60)), int64(s.r.Intn(2)), s.r.Int63(),
	} {
		b = append(b, ',')
		b = strconv.AppendInt(b, v, 10)
	}
	s.record = b
	s.n++
}

// Next implements engine.Spout.
func (s *fdSpout) Next(c engine.Collector) error {
	s.draw()
	out := c.Borrow()
	out.AppendSym(s.entity)
	out.AppendStrBytes(s.record)
	c.Send(out)
	return nil
}

// Offset implements engine.ReplayableSpout.
func (s *fdSpout) Offset() int64 { return s.n }

// SeekTo implements engine.ReplayableSpout.
func (s *fdSpout) SeekTo(offset int64) error {
	if offset < 0 {
		return fmt.Errorf("apps: fd spout seek to %d", offset)
	}
	s.r = rng(s.seed)
	s.n = 0
	for s.n < offset {
		s.draw()
	}
	return nil
}

// fdPredict scores records against per-entity transition state (last
// amount bucket seen) and snapshots that state, so FD recovers exactly:
// a replayed record meets the same per-entity history it met originally.
// The state keys on the entity symbol itself — a dense id that is its
// own hash payload — so the per-record probe never reads the name.
type fdPredict struct {
	last *state.Map[tuple.Sym, int64]
	one  engine.OneRow
}

func newFDPredict() *fdPredict {
	return &fdPredict{last: state.NewMapWith[tuple.Sym, int64](func(s tuple.Sym) uint64 { return uint64(s) })}
}

func (p *fdPredict) Process(c engine.Collector, t *tuple.Tuple) error { return p.one.Process(p, c, t) }

func (p *fdPredict) ProcessBatch(c engine.Collector, b *tuple.Batch) error {
	n := b.Len()
	for r := 0; r < n; r++ {
		// The record is an arena view, only read within this call.
		entity := b.Sym(0, r)
		record := b.Str(1, r)
		// Score: a cheap stand-in for a Markov-model probability lookup
		// — bucket the record hash and compare with the entity's
		// previous bucket.
		h := fdHash(record)
		bucket := (h%97 + 97) % 97
		last, created := p.last.GetOrCreate(entity)
		prev, seen := *last, !created
		*last = bucket
		// A signal is emitted for every input row regardless of the
		// detection outcome.
		out := c.Out(tuple.DefaultStreamID)
		out.PutSym(entity)
		out.PutBool(seen && (bucket-prev) > 80)
		out.EndRowFrom(b, r)
	}
	return nil
}

// fdHash is the record hash h = h*31 + c over the record's bytes, mod
// 2⁶⁴. It folds four bytes per step, h·31⁴ + c₀·31³ + c₁·31² + c₂·31 +
// c₃, which is the same value with a dependency chain a quarter as
// long: arithmetic mod 2⁶⁴ is a ring.
func fdHash(record string) int64 {
	var h int64
	i := 0
	for ; i+4 <= len(record); i += 4 {
		h = h*(31*31*31*31) + int64(record[i])*(31*31*31) + int64(record[i+1])*(31*31) +
			int64(record[i+2])*31 + int64(record[i+3])
	}
	for ; i < len(record); i++ {
		h = h*31 + int64(record[i])
	}
	return h
}

// Snapshot implements checkpoint.Snapshotter. Entities are encoded by
// name in name order: symbol ids depend on interning order, names are
// byte-stable across processes.
func (p *fdPredict) Snapshot(enc *checkpoint.Encoder) error {
	enc.Len(p.last.Len())
	p.last.RangeSorted(func(a, b tuple.Sym) int { return strings.Compare(a.Name(), b.Name()) },
		func(sym tuple.Sym, bucket *int64) bool {
			enc.String(sym.Name())
			enc.Int64(*bucket)
			return true
		})
	return nil
}

// Restore implements checkpoint.Snapshotter.
func (p *fdPredict) Restore(dec *checkpoint.Decoder) error {
	return checkpoint.LoadOrdered(dec, p.last,
		func(d *checkpoint.Decoder) tuple.Sym { return tuple.InternSym(d.String()) },
		func(d *checkpoint.Decoder, bucket *int64) { *bucket = d.Int64() })
}

// FraudDetection builds the FD application of Figure 18a: Spout emits
// credit-card transaction records; Parser extracts the entity id and the
// transaction record; Predict scores the record against a per-entity
// Markov-model-like state machine and emits a signal for every input
// tuple regardless of whether fraud is flagged (selectivity 1, Appendix
// B); Sink counts results.
//
// The transaction record is a multi-hundred-byte string, which makes FD
// communication-heavy: the paper observes that optimized LR/FD plans
// completely avoid cross-tray producer-consumer placements (Section 6.4).
func FraudDetection() *App {
	g := graph.New("FD")
	mustNode(g, &graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	mustNode(g, &graph.Node{Name: "parser", Selectivity: map[string]float64{"default": 1}})
	mustNode(g, &graph.Node{Name: "predict", Selectivity: map[string]float64{"default": 1}})
	mustNode(g, &graph.Node{Name: "sink", IsSink: true})
	mustEdge(g, graph.Edge{From: "spout", To: "parser", Stream: "default"})
	mustEdge(g, graph.Edge{From: "parser", To: "predict", Stream: "default", Partitioning: graph.Fields, KeyField: 0})
	mustEdge(g, graph.Edge{From: "predict", To: "sink", Stream: "default"})

	return &App{
		Name:  "FD",
		Graph: mustValid(g),
		Spouts: map[string]func() engine.Spout{
			"spout": func() engine.Spout { return newFDSpout(2000 + fdSpoutSeq.Add(1)) },
		},
		Operators: map[string]func() engine.Operator{
			"parser":  func() engine.Operator { return &arityParser{min: 2} },
			"predict": func() engine.Operator { return newFDPredict() },
			"sink":    func() engine.Operator { return nopSink{} },
		},
		Schemas: map[string]map[string]*tuple.Schema{
			"spout":   {"default": tuple.NewSchema(tuple.SymField("entity"), tuple.StrField("record"))},
			"parser":  {"default": tuple.NewSchema(tuple.SymField("entity"), tuple.StrField("record"))},
			"predict": {"default": tuple.NewSchema(tuple.SymField("entity"), tuple.BoolField("fraud"))},
		},
		// Transaction records are ~250 B (4 cache lines); Predict pays a
		// model-lookup-dominated Te. Calibrated to land near the paper's
		// 7.2M events/s on Server A (Table 4).
		Stats: profile.Set{
			"spout":   {Te: 1500, M: 500, N: 250, Selectivity: map[string]float64{"default": 1}},
			"parser":  {Te: 800, M: 500, N: 250, Selectivity: map[string]float64{"default": 1}},
			"predict": {Te: 11000, M: 700, N: 250, Selectivity: map[string]float64{"default": 1}},
			"sink":    {Te: 300, M: 60, N: 30, Selectivity: map[string]float64{}},
		},
	}
}
