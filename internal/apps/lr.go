package apps

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
	"briskstream/internal/graph"
	"briskstream/internal/profile"
	"briskstream/internal/state"
	"briskstream/internal/tuple"
	"briskstream/internal/vec"
	"briskstream/internal/window"
)

var lrSpoutSeq atomic.Int64

// LR event-time parameters: the input clock advances one event-ms per
// record; the benchmark's "minute statistics" — average segment speed
// over the last five minutes, distinct vehicles per minute — are scaled
// onto that synthetic clock as sliding windows of lrStatSpan sliding by
// lrStatSlide (avg speed) and tumbling windows of lrStatSlide (vehicle
// counts).
const (
	lrStatSpan       = 4096
	lrStatSlide      = 1024
	lrWatermarkEvery = 64
)

// LR stream names (Table 8).
const (
	lrPosition = "position_report"
	lrBalance  = "balance_stream"
	lrDaily    = "daliy_exp_request" // spelled as in the paper's Table 8
	lrAvg      = "avg_stream"
	lrLas      = "las_stream"
	lrDetect   = "detect_stream"
	lrCounts   = "counts_stream"
	lrNotify   = "notify_stream"
	lrToll     = "toll_nofity_stream" // spelled as in the paper's Table 8
)

// Interned stream ids, resolved once at package init so the operators'
// per-tuple stream dispatch is an integer compare (the engine's routing
// tables are keyed the same way).
var (
	lrPositionID = tuple.Intern(lrPosition)
	lrBalanceID  = tuple.Intern(lrBalance)
	lrDailyID    = tuple.Intern(lrDaily)
	lrAvgID      = tuple.Intern(lrAvg)
	lrLasID      = tuple.Intern(lrLas)
	lrDetectID   = tuple.Intern(lrDetect)
	lrCountsID   = tuple.Intern(lrCounts)
	lrNotifyID   = tuple.Intern(lrNotify)
	lrTollID     = tuple.Intern(lrToll)
)

// Input record types on the LR input stream.
const (
	lrTypePosition = int64(0)
	lrTypeBalance  = int64(2)
	lrTypeDaily    = int64(3)
)

// LinearRoad builds the LR application of Figure 18c — the Linear Road
// benchmark's continuous queries over a simulated expressway: variable
// tolling from segment statistics (average speed, vehicle counts),
// accident detection and notification, and historical account queries.
// The segment statistics are event-time windows on keyed state:
// avg_speed is a sliding window, count_vehicle a tumbling distinct
// count, both per segment (the benchmark's minute statistics on the
// synthetic event clock).
//
// Stream selectivities follow Table 8. Entries the paper prints as
// "(approx) 0.0" are rare-but-nonzero events (accidents, account
// queries); we use small positive values so every code path is
// exercised: dispatcher balance/daily requests 0.3%/0.2% of input,
// accident detection 0.1% of position reports. Daily_expen and
// Account_balance answer each (rare) query they receive.
func LinearRoad() *App {
	g := graph.New("LR")
	mustNode(g, &graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	mustNode(g, &graph.Node{Name: "parser", Selectivity: map[string]float64{"default": 1}})
	mustNode(g, &graph.Node{Name: "dispatcher", Selectivity: map[string]float64{
		lrPosition: 0.99, lrBalance: 0.003, lrDaily: 0.002,
	}})
	mustNode(g, &graph.Node{Name: "avg_speed", Selectivity: map[string]float64{lrAvg: 1}})
	mustNode(g, &graph.Node{Name: "las_avg_speed", Selectivity: map[string]float64{lrLas: 1}})
	mustNode(g, &graph.Node{Name: "accident_detect", Selectivity: map[string]float64{lrDetect: 0.001}})
	mustNode(g, &graph.Node{Name: "count_vehicle", Selectivity: map[string]float64{lrCounts: 1}})
	mustNode(g, &graph.Node{Name: "toll_notify", Selectivity: map[string]float64{lrToll: 1}})
	mustNode(g, &graph.Node{Name: "accident_notify", Selectivity: map[string]float64{lrNotify: 0.001}})
	mustNode(g, &graph.Node{Name: "daily_expen", Selectivity: map[string]float64{"default": 1}})
	mustNode(g, &graph.Node{Name: "account_balance", Selectivity: map[string]float64{"default": 1}})
	mustNode(g, &graph.Node{Name: "sink", IsSink: true})

	mustEdge(g, graph.Edge{From: "spout", To: "parser", Stream: "default"})
	mustEdge(g, graph.Edge{From: "parser", To: "dispatcher", Stream: "default"})
	mustEdge(g, graph.Edge{From: "dispatcher", To: "avg_speed", Stream: lrPosition, Partitioning: graph.Fields, KeyField: 5})
	mustEdge(g, graph.Edge{From: "dispatcher", To: "accident_detect", Stream: lrPosition, Partitioning: graph.Fields, KeyField: 1})
	mustEdge(g, graph.Edge{From: "dispatcher", To: "count_vehicle", Stream: lrPosition, Partitioning: graph.Fields, KeyField: 5})
	mustEdge(g, graph.Edge{From: "dispatcher", To: "toll_notify", Stream: lrPosition})
	mustEdge(g, graph.Edge{From: "dispatcher", To: "accident_notify", Stream: lrPosition})
	mustEdge(g, graph.Edge{From: "dispatcher", To: "account_balance", Stream: lrBalance, Partitioning: graph.Fields, KeyField: 1})
	mustEdge(g, graph.Edge{From: "dispatcher", To: "daily_expen", Stream: lrDaily, Partitioning: graph.Fields, KeyField: 1})
	mustEdge(g, graph.Edge{From: "avg_speed", To: "las_avg_speed", Stream: lrAvg, Partitioning: graph.Fields, KeyField: 0})
	mustEdge(g, graph.Edge{From: "las_avg_speed", To: "toll_notify", Stream: lrLas})
	mustEdge(g, graph.Edge{From: "accident_detect", To: "toll_notify", Stream: lrDetect})
	mustEdge(g, graph.Edge{From: "accident_detect", To: "accident_notify", Stream: lrDetect})
	mustEdge(g, graph.Edge{From: "count_vehicle", To: "toll_notify", Stream: lrCounts})
	mustEdge(g, graph.Edge{From: "toll_notify", To: "sink", Stream: lrToll})
	mustEdge(g, graph.Edge{From: "accident_notify", To: "sink", Stream: lrNotify})
	mustEdge(g, graph.Edge{From: "daily_expen", To: "sink", Stream: "default"})
	mustEdge(g, graph.Edge{From: "account_balance", To: "sink", Stream: "default"})

	// The input record schema: (type, vehicle, speed, xway, lane,
	// segment, position), all integers (Table 8's position report shape
	// with the record type prefixed).
	record := tuple.NewSchema(
		tuple.IntField("type"), tuple.IntField("vehicle"), tuple.IntField("speed"),
		tuple.IntField("xway"), tuple.IntField("lane"), tuple.IntField("segment"),
		tuple.IntField("position"))
	return &App{
		Name:      "LR",
		Graph:     mustValid(g),
		Spouts:    map[string]func() engine.Spout{"spout": lrSpout},
		Operators: lrOperators(),
		Schemas: map[string]map[string]*tuple.Schema{
			"spout":  {"default": record},
			"parser": {"default": record},
			"dispatcher": {
				lrPosition: record, lrBalance: record, lrDaily: record,
			},
			"avg_speed":       {lrAvg: tuple.NewSchema(tuple.IntField("segment"), tuple.FloatField("avg_speed"))},
			"las_avg_speed":   {lrLas: tuple.NewSchema(tuple.IntField("segment"), tuple.FloatField("las_speed"))},
			"accident_detect": {lrDetect: tuple.NewSchema(tuple.IntField("segment"), tuple.IntField("position"))},
			"count_vehicle":   {lrCounts: tuple.NewSchema(tuple.IntField("segment"), tuple.IntField("vehicles"))},
			"toll_notify":     {lrToll: tuple.NewSchema(tuple.IntField("id"), tuple.FloatField("toll"))},
			"accident_notify": {lrNotify: tuple.NewSchema(tuple.IntField("vehicle"), tuple.IntField("segment"))},
			"daily_expen":     {"default": tuple.NewSchema(tuple.IntField("vehicle"), tuple.FloatField("expenditure"))},
			"account_balance": {"default": tuple.NewSchema(tuple.IntField("vehicle"), tuple.FloatField("balance"))},
		},
		// Position reports are ~120 B; toll notification is the hot
		// operator (three input streams). Calibrated to land near the
		// paper's 8.7M events/s on Server A (Table 4).
		Stats: profile.Set{
			"spout":           {Te: 1300, M: 240, N: 120, Selectivity: map[string]float64{"default": 1}},
			"parser":          {Te: 900, M: 240, N: 120, Selectivity: map[string]float64{"default": 1}},
			"dispatcher":      {Te: 1100, M: 240, N: 120, Selectivity: map[string]float64{lrPosition: 0.99, lrBalance: 0.003, lrDaily: 0.002}},
			"avg_speed":       {Te: 3200, M: 260, N: 120, Selectivity: map[string]float64{lrAvg: 1}},
			"las_avg_speed":   {Te: 2600, M: 120, N: 40, Selectivity: map[string]float64{lrLas: 1}},
			"accident_detect": {Te: 2200, M: 260, N: 120, Selectivity: map[string]float64{lrDetect: 0.001}},
			"count_vehicle":   {Te: 3000, M: 260, N: 120, Selectivity: map[string]float64{lrCounts: 1}},
			"toll_notify":     {Te: 4200, M: 280, N: 100, Selectivity: map[string]float64{lrToll: 1}},
			"accident_notify": {Te: 1200, M: 240, N: 110, Selectivity: map[string]float64{lrNotify: 0.001}},
			"daily_expen":     {Te: 1800, M: 120, N: 60, Selectivity: map[string]float64{"default": 1}},
			"account_balance": {Te: 1600, M: 120, N: 60, Selectivity: map[string]float64{"default": 1}},
			"sink":            {Te: 250, M: 80, N: 40, Selectivity: map[string]float64{}},
		},
	}
}

// lrSpout generates typed input records:
// (type, vehicle, speed, xway, lane, segment, position), stamped with
// the synthetic event clock and punctuated with watermarks. It is
// replayable like wcSpout: the record stream is a pure function of
// (seed, offset).
type lrSpoutT struct {
	seed int64
	r    *rand.Rand
	et   int64

	typ, vehicle, speed, xway, lane, segment, position int64
}

func newLRSpout(seed int64) *lrSpoutT {
	return &lrSpoutT{seed: seed, r: rng(seed)}
}

func lrSpout() engine.Spout { return newLRSpout(4000 + lrSpoutSeq.Add(1)) }

func (s *lrSpoutT) draw() {
	s.typ = lrTypePosition
	switch p := s.r.Intn(1000); {
	case p < 3:
		s.typ = lrTypeBalance
	case p < 5:
		s.typ = lrTypeDaily
	}
	s.vehicle = int64(s.r.Intn(50000))
	s.speed = int64(s.r.Intn(100))
	if s.r.Intn(500) == 0 {
		s.speed = 0 // stopped vehicle: potential accident
	}
	s.xway = int64(s.r.Intn(2))
	s.lane = int64(s.r.Intn(4))
	s.segment = int64(s.r.Intn(100))
	s.position = int64(s.r.Intn(528000))
	s.et++
}

// Next implements engine.Spout.
func (s *lrSpoutT) Next(c engine.Collector) error {
	s.draw()
	out := c.Borrow()
	out.AppendInt(s.typ)
	out.AppendInt(s.vehicle)
	out.AppendInt(s.speed)
	out.AppendInt(s.xway)
	out.AppendInt(s.lane)
	out.AppendInt(s.segment)
	out.AppendInt(s.position)
	out.Event = s.et
	c.Send(out)
	if s.et%lrWatermarkEvery == 0 {
		c.EmitWatermark(s.et)
	}
	return nil
}

// Offset implements engine.ReplayableSpout.
func (s *lrSpoutT) Offset() int64 { return s.et }

// SeekTo implements engine.ReplayableSpout.
func (s *lrSpoutT) SeekTo(offset int64) error {
	if offset < 0 {
		return fmt.Errorf("apps: lr spout seek to %d", offset)
	}
	s.r = rng(s.seed)
	s.et = 0
	for s.et < offset {
		s.draw()
	}
	return nil
}

// LR's non-window stateful operators. Each keeps its tables in
// state.Maps and snapshots them in sorted key order, so a recovered LR
// run re-applies replayed records against exactly the state it had at
// the cut — without this, balances would double-increment and stop
// counters would flag spurious accidents on replay. (LR's toll output
// still depends on the arrival interleaving of its three input streams,
// so unlike WC/TW/FD/SD its output is not a pure function of the input;
// state recovery is exact, output equality is not a testable property
// here.) Each implements Process through engine.OneRow and emits through
// Out, stamping every output with its input row's metadata.

// Value codecs for SaveOrdered/LoadOrdered.
func saveFloat(e *checkpoint.Encoder, v *float64) { e.Float64(*v) }
func loadFloat(d *checkpoint.Decoder, v *float64) { *v = d.Float64() }
func saveInt(e *checkpoint.Encoder, v *int64)     { e.Int64(*v) }
func loadInt(d *checkpoint.Decoder, v *int64)     { *v = d.Int64() }
func saveBool(e *checkpoint.Encoder, v *bool)     { e.Bool(*v) }
func loadBool(d *checkpoint.Decoder, v *bool)     { *v = d.Bool() }

// valueOf returns k's value in m, or V's zero value when k is absent.
func valueOf[V any](m *state.Map[int64, V], k int64) V {
	if v := m.Get(k); v != nil {
		return *v
	}
	var zero V
	return zero
}

// lrLasAvg smooths the latest average speed per segment (EWMA).
type lrLasAvg struct {
	one engine.OneRow
	lav *state.Map[int64, float64]
}

func (o *lrLasAvg) Process(c engine.Collector, t *tuple.Tuple) error { return o.one.Process(o, c, t) }

func (o *lrLasAvg) ProcessBatch(c engine.Collector, b *tuple.Batch) error {
	for r := 0; r < b.Len(); r++ {
		seg, avg := b.Int(0, r), b.Float(1, r)
		lav, created := o.lav.GetOrCreate(seg)
		if created {
			*lav = avg
		}
		*lav = 0.8**lav + 0.2*avg
		out := c.Out(lrLasID)
		out.PutInt(seg)
		out.PutFloat(*lav)
		out.EndRowFrom(b, r)
	}
	return nil
}

func (o *lrLasAvg) Snapshot(enc *checkpoint.Encoder) error {
	checkpoint.SaveOrdered(enc, o.lav, (*checkpoint.Encoder).Int64, saveFloat)
	return nil
}

func (o *lrLasAvg) Restore(dec *checkpoint.Decoder) error {
	return checkpoint.LoadOrdered(dec, o.lav, (*checkpoint.Decoder).Int64, loadFloat)
}

// lrVState is one vehicle's stop-detection state.
type lrVState struct {
	pos     int64
	stopped int
}

// lrAccidentDetect marks an accident when a vehicle reports speed 0 at
// the same position four consecutive times.
type lrAccidentDetect struct {
	one      engine.OneRow
	vehicles *state.Map[int64, lrVState]
}

func (o *lrAccidentDetect) Process(c engine.Collector, t *tuple.Tuple) error {
	return o.one.Process(o, c, t)
}

func (o *lrAccidentDetect) ProcessBatch(c engine.Collector, b *tuple.Batch) error {
	for r := 0; r < b.Len(); r++ {
		speed, pos := b.Int(2, r), b.Int(6, r)
		s, created := o.vehicles.GetOrCreate(b.Int(1, r))
		if created {
			*s = lrVState{}
		}
		if speed != 0 || s.pos != pos {
			s.stopped = 0
			s.pos = pos
			continue
		}
		if s.stopped++; s.stopped == 4 {
			out := c.Out(lrDetectID)
			out.PutInt(b.Int(5, r))
			out.PutInt(pos)
			out.EndRowFrom(b, r)
		}
	}
	return nil
}

func (o *lrAccidentDetect) Snapshot(enc *checkpoint.Encoder) error {
	checkpoint.SaveOrdered(enc, o.vehicles, (*checkpoint.Encoder).Int64,
		func(e *checkpoint.Encoder, v *lrVState) {
			e.Int64(v.pos)
			e.Int64(int64(v.stopped))
		})
	return nil
}

func (o *lrAccidentDetect) Restore(dec *checkpoint.Decoder) error {
	return checkpoint.LoadOrdered(dec, o.vehicles, (*checkpoint.Decoder).Int64,
		func(d *checkpoint.Decoder, v *lrVState) {
			v.pos = d.Int64()
			v.stopped = int(d.Int64())
		})
}

// lrTollNotify computes variable tolls from the latest per-segment
// statistics and accident flags.
type lrTollNotify struct {
	one      engine.OneRow
	lav      *state.Map[int64, float64]
	cnt      *state.Map[int64, int64]
	accident *state.Map[int64, bool]
}

func (o *lrTollNotify) Process(c engine.Collector, t *tuple.Tuple) error {
	return o.one.Process(o, c, t)
}

// notifyRow emits row r's toll notification.
func (o *lrTollNotify) notifyRow(c engine.Collector, b *tuple.Batch, r int, id int64, toll float64) {
	out := c.Out(lrTollID)
	out.PutInt(id)
	out.PutFloat(toll)
	out.EndRowFrom(b, r)
}

func (o *lrTollNotify) toll(seg int64) float64 {
	if cnt := valueOf(o.cnt, seg); cnt > 50 && valueOf(o.lav, seg) < 40 && !valueOf(o.accident, seg) {
		base := float64(cnt - 50)
		return 2 * base * base / 100
	}
	return 0
}

// ProcessBatch makes one stream check per batch, then runs tight per-row
// loops over the integer columns.
func (o *lrTollNotify) ProcessBatch(c engine.Collector, b *tuple.Batch) error {
	n := b.Len()
	switch b.Stream {
	case lrLasID:
		for r := 0; r < n; r++ {
			seg := b.Int(0, r)
			lav, _ := o.lav.GetOrCreate(seg)
			*lav = b.Float(1, r)
			o.notifyRow(c, b, r, seg, 0.0)
		}
	case lrCountsID:
		for r := 0; r < n; r++ {
			seg := b.Int(0, r)
			cnt, _ := o.cnt.GetOrCreate(seg)
			*cnt = b.Int(1, r)
			o.notifyRow(c, b, r, seg, 0.0)
		}
	case lrDetectID:
		for r := 0; r < n; r++ {
			acc, _ := o.accident.GetOrCreate(b.Int(0, r))
			*acc = true
		}
	default: // position reports
		for r := 0; r < n; r++ {
			o.notifyRow(c, b, r, b.Int(1, r), o.toll(b.Int(5, r)))
		}
	}
	return nil
}

func (o *lrTollNotify) Snapshot(enc *checkpoint.Encoder) error {
	checkpoint.SaveOrdered(enc, o.lav, (*checkpoint.Encoder).Int64, saveFloat)
	checkpoint.SaveOrdered(enc, o.cnt, (*checkpoint.Encoder).Int64, saveInt)
	checkpoint.SaveOrdered(enc, o.accident, (*checkpoint.Encoder).Int64, saveBool)
	return nil
}

func (o *lrTollNotify) Restore(dec *checkpoint.Decoder) error {
	if err := checkpoint.LoadOrdered(dec, o.lav, (*checkpoint.Decoder).Int64, loadFloat); err != nil {
		return err
	}
	if err := checkpoint.LoadOrdered(dec, o.cnt, (*checkpoint.Decoder).Int64, loadInt); err != nil {
		return err
	}
	return checkpoint.LoadOrdered(dec, o.accident, (*checkpoint.Decoder).Int64, loadBool)
}

// lrAccidentNotify notifies vehicles entering a segment with a known
// accident.
type lrAccidentNotify struct {
	one       engine.OneRow
	accidents *state.Map[int64, bool]
}

func (o *lrAccidentNotify) Process(c engine.Collector, t *tuple.Tuple) error {
	return o.one.Process(o, c, t)
}

// ProcessBatch records a detect batch's segments. The accident set is
// usually empty and notifications are rare, so a position batch usually
// costs one length check, or a tight scan over the segment column that
// emits nothing.
func (o *lrAccidentNotify) ProcessBatch(c engine.Collector, b *tuple.Batch) error {
	n := b.Len()
	if b.Stream == lrDetectID {
		for r := 0; r < n; r++ {
			acc, _ := o.accidents.GetOrCreate(b.Int(0, r))
			*acc = true
		}
		return nil
	}
	if o.accidents.Len() == 0 {
		return nil
	}
	for r := 0; r < n; r++ {
		if seg := b.Int(5, r); valueOf(o.accidents, seg) {
			out := c.Out(lrNotifyID)
			out.PutInt(b.Int(1, r))
			out.PutInt(seg)
			out.EndRowFrom(b, r)
		}
	}
	return nil
}

func (o *lrAccidentNotify) Snapshot(enc *checkpoint.Encoder) error {
	checkpoint.SaveOrdered(enc, o.accidents, (*checkpoint.Encoder).Int64, saveBool)
	return nil
}

func (o *lrAccidentNotify) Restore(dec *checkpoint.Decoder) error {
	return checkpoint.LoadOrdered(dec, o.accidents, (*checkpoint.Decoder).Int64, loadBool)
}

// lrAccountBalance answers (rare) balance queries from running account
// state.
type lrAccountBalance struct {
	one      engine.OneRow
	balances *state.Map[int64, float64]
}

func (o *lrAccountBalance) Process(c engine.Collector, t *tuple.Tuple) error {
	return o.one.Process(o, c, t)
}

func (o *lrAccountBalance) ProcessBatch(c engine.Collector, b *tuple.Batch) error {
	for r := 0; r < b.Len(); r++ {
		v := b.Int(1, r)
		bal, created := o.balances.GetOrCreate(v)
		if created {
			*bal = 0
		}
		*bal += 0.5
		out := c.Out(tuple.DefaultStreamID)
		out.PutInt(v)
		out.PutFloat(*bal)
		out.EndRowFrom(b, r)
	}
	return nil
}

func (o *lrAccountBalance) Snapshot(enc *checkpoint.Encoder) error {
	checkpoint.SaveOrdered(enc, o.balances, (*checkpoint.Encoder).Int64, saveFloat)
	return nil
}

func (o *lrAccountBalance) Restore(dec *checkpoint.Decoder) error {
	return checkpoint.LoadOrdered(dec, o.balances, (*checkpoint.Decoder).Int64, loadFloat)
}

// lrDispatch routes records by type: position reports (the bulk) on
// lrPosition, the rare balance/daily queries on their own streams. sel
// is its selection vector, reused across batches: the input batch may
// be shared with other readers, so it is not the batch's.
type lrDispatch struct {
	one engine.OneRow
	sel []int32
}

func (d *lrDispatch) Process(c engine.Collector, t *tuple.Tuple) error { return d.one.Process(d, c, t) }

// ProcessBatch splits the batch into per-type selection vectors over
// the record-type column and bulk-forwards each on its stream — the
// dominant position selection covers (nearly) every row and rides the
// collector's batch-to-batch fast path; the rare query selections are
// only scanned for when the first pass saw a non-position row.
func (d *lrDispatch) ProcessBatch(c engine.Collector, b *tuple.Batch) error {
	n := b.Len()
	if cap(d.sel) < n {
		d.sel = make([]int32, 0, n)
	}
	sel := vec.Select(b, d.sel[:0], func(r int) bool {
		ty := b.Int(0, r)
		return ty != lrTypeBalance && ty != lrTypeDaily
	})
	vec.ForwardSel(c, b, sel, lrPositionID)
	if len(sel) == n {
		return nil
	}
	if sel = vec.Select(b, sel[:0], func(r int) bool { return b.Int(0, r) == lrTypeBalance }); len(sel) > 0 {
		vec.ForwardSel(c, b, sel, lrBalanceID)
	}
	if sel = vec.Select(b, sel[:0], func(r int) bool { return b.Int(0, r) == lrTypeDaily }); len(sel) > 0 {
		vec.ForwardSel(c, b, sel, lrDailyID)
	}
	return nil
}

func lrOperators() map[string]func() engine.Operator {
	pass := func() engine.Operator { return &passOp{} }
	sink := func() engine.Operator { return nopSink{} }
	return map[string]func() engine.Operator{
		"parser":     pass,
		"dispatcher": func() engine.Operator { return &lrDispatch{} },
		"avg_speed": func() engine.Operator {
			// Per-segment average speed over the trailing lrStatSpan,
			// refreshed every lrStatSlide — LR's five-minute speed
			// statistic on keyed window state.
			type segStat struct {
				sum   int64
				count int64
			}
			return window.New(window.Op[segStat]{
				KeyField: 5,
				Size:     lrStatSpan,
				Slide:    lrStatSlide,
				Init:     func(a *segStat) { *a = segStat{} },
				Add: func(a *segStat, b *tuple.Batch, r int) {
					a.sum += b.Int(2, r)
					a.count++
				},
				Emit: func(c engine.Collector, key tuple.Key, w window.Span, a *segStat) {
					out := c.Borrow()
					out.Stream = lrAvgID
					out.AppendKey(key)
					out.AppendFloat(float64(a.sum) / float64(a.count))
					out.Event = w.End
					c.Send(out)
				},
				Save: func(enc *checkpoint.Encoder, a *segStat) {
					enc.Int64(a.sum)
					enc.Int64(a.count)
				},
				Load: func(dec *checkpoint.Decoder, a *segStat) error {
					a.sum = dec.Int64()
					a.count = dec.Int64()
					return nil
				},
			})
		},
		"las_avg_speed": func() engine.Operator {
			return &lrLasAvg{lav: state.NewMap[int64, float64]()}
		},
		"accident_detect": func() engine.Operator {
			return &lrAccidentDetect{vehicles: state.NewMap[int64, lrVState]()}
		},
		"count_vehicle": func() engine.Operator {
			// Distinct vehicles per segment per minute: a tumbling
			// window of lrStatSlide keyed by segment; the accumulator's
			// distinct-set keeps its table across window lives.
			type distinct struct {
				seen *state.Map[int64, struct{}]
			}
			return window.New(window.Op[distinct]{
				KeyField: 5,
				Size:     lrStatSlide,
				Init: func(a *distinct) {
					if a.seen == nil {
						a.seen = state.NewMap[int64, struct{}]()
					} else {
						a.seen.Clear()
					}
				},
				Add: func(a *distinct, b *tuple.Batch, r int) { a.seen.GetOrCreate(b.Int(1, r)) },
				Emit: func(c engine.Collector, key tuple.Key, w window.Span, a *distinct) {
					out := c.Borrow()
					out.Stream = lrCountsID
					out.AppendKey(key)
					out.AppendInt(int64(a.seen.Len()))
					out.Event = w.End
					c.Send(out)
				},
				Save: func(enc *checkpoint.Encoder, a *distinct) {
					// Deterministic encoding of the distinct set: sorted
					// vehicle ids.
					checkpoint.SaveOrdered(enc, a.seen, (*checkpoint.Encoder).Int64,
						func(*checkpoint.Encoder, *struct{}) {})
				},
				Load: func(dec *checkpoint.Decoder, a *distinct) error {
					return checkpoint.LoadOrdered(dec, a.seen, (*checkpoint.Decoder).Int64,
						func(*checkpoint.Decoder, *struct{}) {})
				},
			})
		},
		"toll_notify": func() engine.Operator {
			return &lrTollNotify{
				lav:      state.NewMap[int64, float64](),
				cnt:      state.NewMap[int64, int64](),
				accident: state.NewMap[int64, bool](),
			}
		},
		"accident_notify": func() engine.Operator {
			return &lrAccidentNotify{accidents: state.NewMap[int64, bool]()}
		},
		"daily_expen": func() engine.Operator {
			// Historical daily expenditure lookup: deterministic
			// pseudo-history keyed by vehicle.
			return engine.OperatorFunc(func(c engine.Collector, t *tuple.Tuple) error {
				v := t.Int(1)
				out := c.Borrow()
				out.AppendInt(v)
				out.AppendFloat(float64((v*7919)%500) / 10)
				c.Send(out)
				return nil
			})
		},
		"account_balance": func() engine.Operator {
			return &lrAccountBalance{balances: state.NewMap[int64, float64]()}
		},
		"sink": sink,
	}
}
