package apps

// Acceptance guards for the typed-slot refactor: the WC, SD and TW app
// emit paths — source generation and the hot operator stages — perform
// zero allocations per tuple in steady state. (FD reaches zero too with
// pre-interned entities and a reusable record buffer; LR's hot path is
// all-integer slots. The engine dispatch path has its own guard in
// internal/engine.)

import (
	"testing"

	"briskstream/internal/engine"
	"briskstream/internal/tuple"
)

// drainCollector is a minimal engine.Collector that recycles every
// emission straight back to its pool, or drops it for rows put through
// Out, isolating the app-side emit path from engine dispatch (which has
// its own allocation guard).
type drainCollector struct {
	engine.RowOut
	pool *tuple.Pool
}

func newDrainCollector() *drainCollector {
	d := &drainCollector{pool: tuple.NewPool()}
	d.Sink = func(*tuple.Tuple) {}
	return d
}

func (d *drainCollector) Borrow() *tuple.Tuple { return d.pool.Get() }
func (d *drainCollector) Send(t *tuple.Tuple) {
	d.Drain()
	t.Release()
}
func (d *drainCollector) EmitWatermark(wm int64) {}

// assertZeroAllocs warms fn, then requires exactly zero allocations per
// run. Race-instrumented builds skip: the detector's own shadow
// bookkeeping allocates.
func assertZeroAllocs(t *testing.T, name string, warmup int, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skipf("%s: allocation guard is meaningless under the race detector", name)
	}
	for i := 0; i < warmup; i++ {
		fn()
	}
	if avg := testing.AllocsPerRun(5000, fn); avg > 0 {
		t.Errorf("%s allocates %.3f/op in steady state, want 0", name, avg)
	}
}

// windowHarness wires a window/session operator to a detached timer
// service and returns a step function that feeds one keyed row and
// advances the watermark every wmEvery steps (so windows open, fire and
// recycle during the measurement — the full app emit cycle). With
// batchRows 0 each row goes through Process; otherwise rows collect in
// a columnar batch that goes through ProcessBatch once full, the path
// the engine runs. batchRows must divide wmEvery, so every batch is
// processed before the watermark that follows its last row.
func windowHarness(t *testing.T, op engine.Operator, c engine.Collector, fill func(et int64, in *tuple.Tuple), wmEvery, lag int64, batchRows int) func() {
	t.Helper()
	tm := engine.NewTimers()
	op.(engine.TimerAware).SetTimers(tm)
	th := op.(engine.TimerHandler)
	fire := func(at int64) error { return th.OnTimer(c, engine.EventTimer, at) }
	in := &tuple.Tuple{}
	var b *tuple.Batch
	if batchRows > 0 {
		b = tuple.NewBatch(batchRows)
	}
	et := int64(0)
	return func() {
		et++
		in.Reset()
		in.Event = et
		fill(et, in)
		if b == nil {
			if err := op.Process(c, in); err != nil {
				t.Fatal(err)
			}
		} else {
			b.Append(in)
			if b.Full() {
				if err := op.(engine.BatchOperator).ProcessBatch(c, b); err != nil {
					t.Fatal(err)
				}
				b.Reset()
			}
		}
		if et%wmEvery == 0 {
			if err := tm.AdvanceWatermark(et-lag, fire); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestWCEmitPathAllocFree(t *testing.T) {
	c := newDrainCollector()
	app := WordCount()

	sp := app.Spouts["spout"]()
	assertZeroAllocs(t, "WC spout.Next", 2000, func() {
		if err := sp.Next(c); err != nil {
			t.Fatal(err)
		}
	})

	split := app.Operators["splitter"]()
	sentence := &tuple.Tuple{}
	sentence.AppendStr("stream process socket memory tuple operator plan latency remote local")
	assertZeroAllocs(t, "WC splitter.Process", 2000, func() {
		if err := split.Process(c, sentence); err != nil {
			t.Fatal(err)
		}
		c.Drain()
	})

	word := func(et int64, in *tuple.Tuple) {
		in.AppendSym(wcVocabSyms[et%int64(len(wcVocabSyms))])
	}
	assertZeroAllocs(t, "WC counter window cycle", 3*wcWindow,
		windowHarness(t, app.Operators["counter"](), c, word, wcWatermarkEvery, 0, 0))
	assertZeroAllocs(t, "WC counter window cycle through ProcessBatch", 3*wcWindow,
		windowHarness(t, app.Operators["counter"](), c, word, wcWatermarkEvery, 0, wcWatermarkEvery))
}

func TestSDEmitPathAllocFree(t *testing.T) {
	c := newDrainCollector()
	app := SpikeDetection()

	sp := app.Spouts["spout"]()
	assertZeroAllocs(t, "SD spout.Next", 2000, func() {
		if err := sp.Next(c); err != nil {
			t.Fatal(err)
		}
	})

	reading := func(et int64, in *tuple.Tuple) {
		in.AppendSym(sdDeviceSyms[et%int64(len(sdDeviceSyms))])
		in.AppendFloat(20 + float64(et%7))
	}
	assertZeroAllocs(t, "SD moving_avg window cycle", 3*sdWindowSpan,
		windowHarness(t, app.Operators["moving_avg"](), c, reading, sdWatermarkEvery, 0, 0))
	assertZeroAllocs(t, "SD moving_avg window cycle through ProcessBatch", 3*sdWindowSpan,
		windowHarness(t, app.Operators["moving_avg"](), c, reading, sdWatermarkEvery, 0, sdWatermarkEvery))

	detect := app.Operators["spike_detect"]()
	stat := &tuple.Tuple{}
	stat.AppendSym(sdDeviceSyms[0])
	stat.AppendFloat(25)
	stat.AppendFloat(22)
	assertZeroAllocs(t, "SD spike_detect.Process", 2000, func() {
		if err := detect.Process(c, stat); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTWEmitPathAllocFree(t *testing.T) {
	c := newDrainCollector()
	app := TrendingWords()

	sp := app.Spouts["spout"]()
	assertZeroAllocs(t, "TW spout.Next", 2000, func() {
		if err := sp.Next(c); err != nil {
			t.Fatal(err)
		}
	})

	sess := app.Operators["sessionize"]()
	step := windowHarness(t, sess, c, func(et int64, in *tuple.Tuple) {
		// Bursty mentions over a small hot set: sessions open, extend and
		// close across the measurement, exercising merge and fire.
		in.AppendSym(wcVocabSyms[(et/7)%6])
	}, twWatermarkEvery, 0, 0)
	assertZeroAllocs(t, "TW sessionize cycle", 20000, step)
}

func TestFDEmitPathAllocFree(t *testing.T) {
	c := newDrainCollector()
	app := FraudDetection()

	sp := app.Spouts["spout"]()
	assertZeroAllocs(t, "FD spout.Next", 2000, func() {
		if err := sp.Next(c); err != nil {
			t.Fatal(err)
		}
	})

	predict := app.Operators["predict"]()
	warm := &tuple.Tuple{}
	i := int64(0)
	step := func() {
		i++
		warm.Reset()
		warm.AppendSym(fdEntitySyms[i%int64(len(fdEntitySyms))])
		warm.AppendStr("cust-00001,42,17,3,12,30,1,9999999")
		if err := predict.Process(c, warm); err != nil {
			t.Fatal(err)
		}
		c.Drain()
	}
	// Warm over the full entity population so the state map stops
	// growing, then measure.
	assertZeroAllocs(t, "FD predict.Process", 2*len(fdEntitySyms), step)
}
