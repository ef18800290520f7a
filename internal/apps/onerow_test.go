package apps

// One-row face conformance: every batch-aware operator in the apps keeps
// one body, ProcessBatch, and implements Process through engine.OneRow.
// For each, a seeded row sequence fed tuple by tuple through Process
// must emit exactly what the same rows emit through ProcessBatch in
// maximal same-layout runs — payload, stream and every header field —
// and Process must not allocate once warm. LR is covered here because
// no exact-output suite runs it.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"briskstream/internal/engine"
	"briskstream/internal/tuple"
)

// conformCase is one operator under test. gen fills row i's payload,
// Stream and Event (the harness adds Ts and trace context). wmEvery > 0
// advances the watermark to the last event time less lag after every
// wmEvery rows; 0 runs without watermarks until the final flush.
type conformCase struct {
	app, op string
	wmEvery int
	lag     int64
	gen     func(r *rand.Rand, i int, t *tuple.Tuple)
}

var lrRecordStreams = []tuple.StreamID{lrPositionID, lrLasID, lrCountsID, lrDetectID}

// lrRecord appends a seven-integer LR input record of the given type.
func lrRecord(r *rand.Rand, t *tuple.Tuple, typ int64) {
	t.AppendInt(typ)
	t.AppendInt(int64(r.Intn(500)))    // vehicle
	t.AppendInt(int64(r.Intn(100)))    // speed
	t.AppendInt(int64(r.Intn(2)))      // xway
	t.AppendInt(int64(r.Intn(4)))      // lane
	t.AppendInt(int64(r.Intn(20)))     // segment
	t.AppendInt(int64(r.Intn(528000))) // position
}

func conformCases() []conformCase {
	words := func(r *rand.Rand, n int) string {
		var b strings.Builder
		for j := 0; j < n; j++ { // one to three spaces apart, some leading
			b.WriteString(strings.Repeat(" ", min(j, 1)+r.Intn(3)))
			b.WriteString(wcVocabulary[r.Intn(len(wcVocabulary))])
		}
		return b.String()
	}
	reading := func(r *rand.Rand, i int, t *tuple.Tuple) {
		t.AppendSym(sdDeviceSyms[r.Intn(16)])
		t.AppendFloat(20 + 5*r.Float64())
		t.Event = int64(i) - r.Int63n(8)
	}
	return []conformCase{
		{app: "WC", op: "parser", gen: func(r *rand.Rand, i int, t *tuple.Tuple) {
			t.AppendStr(words(r, r.Intn(4))) // some sentences are empty
			t.Event = int64(i)
		}},
		{app: "WC", op: "splitter", gen: func(r *rand.Rand, i int, t *tuple.Tuple) {
			t.AppendStr(words(r, 1+r.Intn(10)))
			t.Event = int64(i)
		}},
		{app: "WC", op: "counter", wmEvery: 37, lag: 16, gen: func(r *rand.Rand, i int, t *tuple.Tuple) {
			t.AppendSym(wcVocabSyms[r.Intn(len(wcVocabSyms))])
			t.Event = 64*int64(i) - r.Int63n(32)
		}},
		{app: "SD", op: "parser", gen: func(r *rand.Rand, i int, t *tuple.Tuple) {
			t.AppendSym(sdDeviceSyms[r.Intn(len(sdDeviceSyms))])
			if r.Intn(5) > 0 { // the rest are malformed: one field
				t.AppendFloat(r.Float64())
			}
			t.Event = int64(i)
		}},
		{app: "SD", op: "moving_avg", wmEvery: 29, lag: 8, gen: func(r *rand.Rand, i int, t *tuple.Tuple) {
			reading(r, 64*i, t)
		}},
		{app: "SD", op: "spike_detect", gen: func(r *rand.Rand, i int, t *tuple.Tuple) {
			t.AppendSym(sdDeviceSyms[r.Intn(len(sdDeviceSyms))])
			t.AppendFloat(20 + 10*r.Float64())
			t.AppendFloat(20 + 5*r.Float64())
			if r.Intn(4) > 0 { // the rest leave Event to the row's own
				t.Event = int64(i)
			}
		}},
		{app: "FD", op: "parser", gen: func(r *rand.Rand, i int, t *tuple.Tuple) {
			t.AppendSym(fdEntitySyms[r.Intn(len(fdEntitySyms))])
			if r.Intn(5) > 0 {
				t.AppendStr(fmt.Sprintf("cust,%d,%d", r.Intn(1000), r.Intn(24)))
			}
		}},
		{app: "FD", op: "predict", gen: func(r *rand.Rand, i int, t *tuple.Tuple) {
			t.AppendSym(fdEntitySyms[r.Intn(64)]) // entities recur, so scores do
			t.AppendStr(fmt.Sprintf("cust,%d,%d,%d", r.Intn(100000), r.Intn(9999), r.Intn(24)))
			t.Event = int64(i)
		}},
		{app: "LR", op: "parser", gen: func(r *rand.Rand, i int, t *tuple.Tuple) {
			lrRecord(r, t, lrTypePosition)
			t.Event = int64(i)
		}},
		{app: "LR", op: "dispatcher", gen: func(r *rand.Rand, i int, t *tuple.Tuple) {
			lrRecord(r, t, []int64{lrTypePosition, lrTypePosition, lrTypeBalance, lrTypeDaily}[r.Intn(4)])
			t.Event = int64(i)
		}},
		{app: "LR", op: "las_avg_speed", gen: func(r *rand.Rand, i int, t *tuple.Tuple) {
			t.Stream = lrAvgID
			t.AppendInt(int64(r.Intn(20)))
			t.AppendFloat(100 * r.Float64())
			t.Event = int64(i)
		}},
		{app: "LR", op: "accident_detect", gen: func(r *rand.Rand, i int, t *tuple.Tuple) {
			// Few vehicles and positions, mostly stopped: detections fire.
			t.Stream = lrPositionID
			t.AppendInt(lrTypePosition)
			t.AppendInt(int64(r.Intn(8)))       // vehicle
			t.AppendInt(int64(r.Intn(4) / 3))   // speed: 0 three times in four
			t.AppendInt(0)                      // xway
			t.AppendInt(0)                      // lane
			t.AppendInt(int64(r.Intn(20)))      // segment
			t.AppendInt(int64(r.Intn(2) * 100)) // position
			t.Event = int64(i)
		}},
		{app: "LR", op: "account_balance", gen: func(r *rand.Rand, i int, t *tuple.Tuple) {
			t.Stream = lrBalanceID
			lrRecord(r, t, lrTypeBalance)
			t.Event = int64(i)
		}},
		{app: "LR", op: "toll_notify", gen: func(r *rand.Rand, i int, t *tuple.Tuple) {
			// All four input streams interleaved, so every run is short
			// and the scratch batch re-adopts its layout row after row.
			t.Stream = lrRecordStreams[r.Intn(len(lrRecordStreams))]
			seg := int64(r.Intn(20))
			switch t.Stream {
			case lrPositionID:
				lrRecord(r, t, lrTypePosition)
			case lrLasID:
				t.AppendInt(seg)
				t.AppendFloat(80 * r.Float64())
			case lrCountsID:
				t.AppendInt(seg)
				t.AppendInt(int64(r.Intn(100)))
			case lrDetectID:
				if r.Intn(10) > 0 {
					seg += 1000 // mostly segments no report visits
				}
				t.AppendInt(seg)
				t.AppendInt(int64(r.Intn(528000)))
			}
			t.Event = int64(i)
		}},
		{app: "LR", op: "accident_notify", gen: func(r *rand.Rand, i int, t *tuple.Tuple) {
			if r.Intn(20) == 0 {
				t.Stream = lrDetectID
				t.AppendInt(int64(r.Intn(20)))
				t.AppendInt(int64(r.Intn(528000)))
			} else {
				t.Stream = lrPositionID
				lrRecord(r, t, lrTypePosition)
			}
			t.Event = int64(i)
		}},
		{app: "TW", op: "sessionize", wmEvery: 31, lag: 4, gen: func(r *rand.Rand, i int, t *tuple.Tuple) {
			t.AppendSym(wcVocabSyms[r.Intn(8)])
			t.Event = 4*int64(i) - r.Int63n(16)
		}},
		{app: "TW", op: "rank", wmEvery: 23, lag: 64, gen: func(r *rand.Rand, i int, t *tuple.Tuple) {
			t.AppendSym(wcVocabSyms[r.Intn(len(wcVocabSyms))])
			t.AppendInt(1 + int64(r.Intn(50)))
			t.AppendInt(16 * int64(i))
			t.AppendInt(16*int64(i) + twGap)
			t.Event = 16*int64(i) + twGap - r.Int63n(32)
		}},
	}
}

// conformRows generates n rows of c from seed, with latency stamps and
// trace context on some of them.
func conformRows(c conformCase, seed int64, n int) []*tuple.Tuple {
	r := rand.New(rand.NewSource(seed))
	rows := make([]*tuple.Tuple, n)
	for i := range rows {
		t := &tuple.Tuple{}
		c.gen(r, i, t)
		if r.Intn(3) == 0 {
			t.Ts = time.Unix(1_700_000_000, int64(i))
		}
		if r.Intn(4) == 0 {
			t.TraceID = uint64(1 + i)
			t.TraceOrigin = 1_000_000 + int64(i)
		}
		rows[i] = t
	}
	return rows
}

// recordColl records every emission with its header fields, in order
// per output stream: streams route to separate edges, so only each
// stream's own order reaches a consumer (lrDispatch emits a batch's
// position reports before its queries).
type recordColl struct {
	engine.RowOut
	pool *tuple.Pool
	got  map[tuple.StreamID][]string
}

func newRecordColl() *recordColl {
	c := &recordColl{pool: tuple.NewPool(), got: map[tuple.StreamID][]string{}}
	c.Sink = c.record
	return c
}

func (c *recordColl) record(t *tuple.Tuple) {
	c.got[t.Stream] = append(c.got[t.Stream], fmt.Sprintf("%v ev=%d ts=%d trace=%d/%d",
		t, t.Event, t.Ts.UnixNano(), t.TraceID, t.TraceOrigin))
}

func (c *recordColl) Borrow() *tuple.Tuple { return c.pool.Get() }
func (c *recordColl) Send(t *tuple.Tuple) {
	c.Drain()
	c.record(t)
	t.Release()
}
func (c *recordColl) EmitWatermark(int64) {}

// startConform builds a fresh instance of c's operator on its own
// timer service, emitting into coll, and returns it with a function
// that advances its watermark.
func startConform(t *testing.T, c conformCase, coll engine.Collector) (engine.BatchOperator, func(wm int64)) {
	t.Helper()
	op, ok := ByName(c.app).Operators[c.op]().(engine.BatchOperator)
	if !ok {
		t.Fatalf("%s.%s is not a BatchOperator", c.app, c.op)
	}
	tm := engine.NewTimers()
	if ta, ok := op.(engine.TimerAware); ok {
		ta.SetTimers(tm)
	}
	th, _ := op.(engine.TimerHandler)
	fire := func(at int64) error {
		if th == nil {
			return nil
		}
		return th.OnTimer(coll, engine.EventTimer, at)
	}
	return op, func(wm int64) {
		if err := tm.AdvanceWatermark(wm, fire); err != nil {
			t.Fatal(err)
		}
	}
}

// runConform runs rows through a fresh instance of c's operator, one
// by one through Process or as batches of maximal same-layout runs
// through ProcessBatch, advancing the watermark as c describes (a
// pending batch is processed first), then to the end of time.
func runConform(t *testing.T, c conformCase, rows []*tuple.Tuple, coll *recordColl, batched bool) {
	t.Helper()
	op, advance := startConform(t, c, coll)
	b := tuple.NewBatch(len(rows))
	flush := func() {
		if b.Len() > 0 {
			if err := op.ProcessBatch(coll, b); err != nil {
				t.Fatal(err)
			}
			b.Reset()
			coll.Drain()
		}
	}
	maxEt := int64(engine.WatermarkMin)
	for i, in := range rows {
		if batched {
			if !b.Fits(in) {
				flush()
			}
			b.Append(in)
		} else if err := op.Process(coll, in); err != nil {
			t.Fatal(err)
		} else {
			coll.Drain()
		}
		maxEt = max(maxEt, in.Event)
		if c.wmEvery > 0 && (i+1)%c.wmEvery == 0 {
			flush()
			advance(maxEt - c.lag)
			coll.Drain()
		}
	}
	flush()
	advance(engine.WatermarkMax)
	coll.Drain()
}

func TestOneRowFaceMatchesProcessBatch(t *testing.T) {
	for _, c := range conformCases() {
		t.Run(c.app+"."+c.op, func(t *testing.T) {
			rows := conformRows(c, 11, 3000)
			one, many := newRecordColl(), newRecordColl()
			runConform(t, c, rows, one, false)
			runConform(t, c, rows, many, true)
			if len(one.got) == 0 {
				t.Fatal("no output: the case exercises nothing")
			}
			if len(one.got) != len(many.got) {
				t.Fatalf("Process emitted on %d streams, ProcessBatch on %d", len(one.got), len(many.got))
			}
			for s, want := range one.got {
				got := many.got[s]
				if len(got) != len(want) {
					t.Fatalf("stream %v: Process emitted %d rows, ProcessBatch %d", s, len(want), len(got))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("stream %v emission %d: Process %q, ProcessBatch %q", s, i, want[i], got[i])
					}
				}
			}
		})
	}
}

func TestOneRowFaceAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard is meaningless under the race detector")
	}
	const warm, runs = 6000, 5000
	for _, c := range conformCases() {
		t.Run(c.app+"."+c.op, func(t *testing.T) {
			coll := newDrainCollector()
			op, advance := startConform(t, c, coll)
			// runs+1: AllocsPerRun calls the step once more to warm up.
			rows := conformRows(c, 12, warm+runs+1)
			i, maxEt := 0, int64(engine.WatermarkMin)
			step := func() {
				in := rows[i]
				if err := op.Process(coll, in); err != nil {
					t.Fatal(err)
				}
				coll.Drain()
				i++
				maxEt = max(maxEt, in.Event)
				if c.wmEvery > 0 && i%c.wmEvery == 0 {
					advance(maxEt - c.lag)
				}
			}
			for i < warm {
				step()
			}
			if avg := testing.AllocsPerRun(runs, step); avg > 0 {
				t.Errorf("Process allocates %.4f/row once warm, want 0", avg)
			}
		})
	}
}
