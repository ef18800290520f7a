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
	"briskstream/internal/window"
)

var sdSpoutSeq atomic.Int64

// SD event-time parameters. The spout's synthetic event clock advances
// one millisecond per reading across ~512 devices, so a device sees a
// reading every ~512 event-ms; a sliding window of sdWindowSpan with
// slide sdSlide covers ~16 readings per device — the same horizon the
// pre-windowed implementation kept as a 16-reading ring buffer.
const (
	sdWindowSpan     = 8192
	sdSlide          = 2048
	sdWatermarkEvery = 64
)

// sdThreshold flags a spike when a window's peak reading exceeds its
// average by this factor.
const sdThreshold = 1.03

// sdDeviceSyms pre-interns the 512 device ids: device ids are the
// textbook low-cardinality key, so readings carry a symbol and the
// per-device window state never copies or hashes the id text.
var sdDeviceSyms = func() []tuple.Sym {
	names := make([]string, 512)
	for i := range names {
		names[i] = fmt.Sprintf("mote-%03d", i)
	}
	return tuple.InternSyms(names...)
}()

// sdSpout generates sensor readings; replayable like wcSpout (the
// stream is a pure function of (seed, offset)).
type sdSpout struct {
	seed   int64
	r      *rand.Rand
	device tuple.Sym
	value  float64
	et     int64
}

func newSDSpout(seed int64) *sdSpout {
	return &sdSpout{seed: seed, r: rng(seed)}
}

func (s *sdSpout) draw() {
	s.device = sdDeviceSyms[s.r.Intn(len(sdDeviceSyms))]
	s.value = 20 + s.r.Float64()*5 // temperature-like signal
	if s.r.Intn(100) == 0 {
		s.value *= 1.5 // occasional genuine spike
	}
	s.et++
}

// Next implements engine.Spout.
func (s *sdSpout) Next(c engine.Collector) error {
	s.draw()
	out := c.Borrow()
	out.AppendSym(s.device)
	out.AppendFloat(s.value)
	out.Event = s.et
	c.Send(out)
	if s.et%sdWatermarkEvery == 0 {
		c.EmitWatermark(s.et)
	}
	return nil
}

// Offset implements engine.ReplayableSpout.
func (s *sdSpout) Offset() int64 { return s.et }

// SeekTo implements engine.ReplayableSpout.
func (s *sdSpout) SeekTo(offset int64) error {
	if offset < 0 {
		return fmt.Errorf("apps: sd spout seek to %d", offset)
	}
	s.r = rng(s.seed)
	s.et = 0
	for s.et < offset {
		s.draw()
	}
	return nil
}

// sdSpikeDetect emits a signal per closed window whether or not a spike
// triggered, reading the peak/avg columns in place.
type sdSpikeDetect struct{ one engine.OneRow }

func (d *sdSpikeDetect) Process(c engine.Collector, t *tuple.Tuple) error {
	return d.one.Process(d, c, t)
}

func (d *sdSpikeDetect) ProcessBatch(c engine.Collector, b *tuple.Batch) error {
	n := b.Len()
	for r := 0; r < n; r++ {
		peak, avg := b.Float(1, r), b.Float(2, r)
		out := c.Borrow()
		out.AppendSym(b.Sym(0, r))
		out.AppendFloat(peak)
		out.AppendBool(peak > sdThreshold*avg)
		b.StampMeta(r, out)
		c.Send(out)
	}
	return nil
}

// SpikeDetection builds the SD application of Figure 18b: Spout emits
// sensor readings (device id, value) with event timestamps; Parser
// validates; MovingAverage aggregates per-device sliding event-time
// windows and emits (device, peak, avg) per closed window;
// SpikeDetection emits a signal per window with a flag set when peak >
// threshold x average; Sink counts results.
//
// As with WC, the declared model statistics keep the paper's
// calibration; the executable operators carry the windowed semantics.
func SpikeDetection() *App {
	g := graph.New("SD")
	mustNode(g, &graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	mustNode(g, &graph.Node{Name: "parser", Selectivity: map[string]float64{"default": 1}})
	mustNode(g, &graph.Node{Name: "moving_avg", Selectivity: map[string]float64{"default": 1}})
	mustNode(g, &graph.Node{Name: "spike_detect", Selectivity: map[string]float64{"default": 1}})
	mustNode(g, &graph.Node{Name: "sink", IsSink: true})
	mustEdge(g, graph.Edge{From: "spout", To: "parser", Stream: "default"})
	mustEdge(g, graph.Edge{From: "parser", To: "moving_avg", Stream: "default", Partitioning: graph.Fields, KeyField: 0})
	mustEdge(g, graph.Edge{From: "moving_avg", To: "spike_detect", Stream: "default"})
	mustEdge(g, graph.Edge{From: "spike_detect", To: "sink", Stream: "default"})

	return &App{
		Name:  "SD",
		Graph: mustValid(g),
		Spouts: map[string]func() engine.Spout{
			"spout": func() engine.Spout { return newSDSpout(3000 + sdSpoutSeq.Add(1)) },
		},
		Operators: map[string]func() engine.Operator{
			"parser": func() engine.Operator { return &arityParser{min: 2} },
			"moving_avg": func() engine.Operator {
				type stats struct {
					sum  float64
					peak float64
					n    int64
				}
				return window.New(window.Op[stats]{
					KeyField: 0,
					Size:     sdWindowSpan,
					Slide:    sdSlide,
					Init:     func(a *stats) { *a = stats{} },
					Add: func(a *stats, b *tuple.Batch, r int) {
						v := b.Float(1, r)
						a.sum += v
						a.n++
						if v > a.peak {
							a.peak = v
						}
					},
					Emit: func(c engine.Collector, key tuple.Key, w window.Span, a *stats) {
						out := c.Borrow()
						out.AppendKey(key)
						out.AppendFloat(a.peak)
						out.AppendFloat(a.sum / float64(a.n))
						out.Event = w.End
						c.Send(out)
					},
					Save: func(enc *checkpoint.Encoder, a *stats) {
						enc.Float64(a.sum)
						enc.Float64(a.peak)
						enc.Int64(a.n)
					},
					Load: func(dec *checkpoint.Decoder, a *stats) error {
						a.sum = dec.Float64()
						a.peak = dec.Float64()
						a.n = dec.Int64()
						return nil
					},
				})
			},
			"spike_detect": func() engine.Operator { return &sdSpikeDetect{} },
			"sink":         func() engine.Operator { return nopSink{} },
		},
		Schemas: map[string]map[string]*tuple.Schema{
			"spout":        {"default": tuple.NewSchema(tuple.SymField("device"), tuple.FloatField("value"))},
			"parser":       {"default": tuple.NewSchema(tuple.SymField("device"), tuple.FloatField("value"))},
			"moving_avg":   {"default": tuple.NewSchema(tuple.SymField("device"), tuple.FloatField("peak"), tuple.FloatField("avg"))},
			"spike_detect": {"default": tuple.NewSchema(tuple.SymField("device"), tuple.FloatField("peak"), tuple.BoolField("spike"))},
		},
		// Sensor readings are small (~40 B); the window maintenance in
		// MovingAverage dominates. Calibrated to land near the paper's
		// 12.8M events/s on Server A (Table 4).
		Stats: profile.Set{
			"spout":        {Te: 1100, M: 80, N: 40, Selectivity: map[string]float64{"default": 1}},
			"parser":       {Te: 700, M: 80, N: 40, Selectivity: map[string]float64{"default": 1}},
			"moving_avg":   {Te: 4800, M: 300, N: 40, Selectivity: map[string]float64{"default": 1}},
			"spike_detect": {Te: 3200, M: 100, N: 48, Selectivity: map[string]float64{"default": 1}},
			"sink":         {Te: 300, M: 50, N: 25, Selectivity: map[string]float64{}},
		},
	}
}
