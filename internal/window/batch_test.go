package window

// Batch-size invariance as a property: one event stream fed per tuple
// (Process, which hands ProcessBatch one-row batches) and in columnar
// batches of many rows (ProcessBatch) must produce identical emissions
// and drop the same number of late tuples, for randomly drawn window
// sizes and slides, lateness, watermark lag, event-time disorder, key
// cardinalities and batch sizes. FuzzWindowBatchEquivalence lets the
// fuzzer draw them.

import (
	"fmt"
	"math/rand"
	"testing"

	"briskstream/internal/engine"
	"briskstream/internal/tuple"
)

// feedBatches drives events through ProcessBatch in batches of
// batchRows, advancing the watermark between batches like feed does
// between wmEvery events, then flushes with the final watermark.
func feedBatches(t *testing.T, op engine.Operator, events []event, batchRows int, lag int64) {
	t.Helper()
	tm := engine.NewTimers()
	op.(engine.TimerAware).SetTimers(tm)
	bop := op.(engine.BatchOperator)
	th := op.(engine.TimerHandler)
	fire := func(at int64) error { return th.OnTimer(nil, engine.EventTimer, at) }
	maxEt := int64(-1 << 62)
	b := tuple.NewBatch(batchRows)
	in := &tuple.Tuple{}
	flush := func() {
		if b.Len() == 0 {
			return
		}
		if err := bop.ProcessBatch(nil, b); err != nil {
			t.Fatal(err)
		}
		b.Reset()
		if err := tm.AdvanceWatermark(maxEt-lag, fire); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range events {
		in.Reset()
		in.AppendStr(ev.key)
		in.AppendInt(1)
		in.Event = ev.et
		b.Append(in)
		if ev.et > maxEt {
			maxEt = ev.et
		}
		if b.Full() {
			flush()
		}
	}
	flush()
	if err := tm.AdvanceWatermark(engine.WatermarkMax, fire); err != nil {
		t.Fatal(err)
	}
}

// equivCase is one draw of the property's inputs.
type equivCase struct {
	size, slide, lateness, lag int64
	batch                      int
	events                     []event
}

func (c equivCase) String() string {
	return fmt.Sprintf("size=%d slide=%d lateness=%d lag=%d batch=%d", c.size, c.slide, c.lateness, c.lag, c.batch)
}

// newEquivCase maps raw draws onto the property's ranges — Size 1…256,
// Slide 1…Size, Lateness and watermark lag 0…63, batches of 1…64 rows,
// 4…500 keys — and generates 2000 events from seed, event i at time i
// less a disorder of 0…127 units. Disorder beyond lag + Lateness makes
// tuples late.
func newEquivCase(seed int64, size, slide, lateness, lag, disorder, batch uint8, keys uint16) equivCase {
	c := equivCase{
		size:     1 + int64(size),
		lateness: int64(lateness % 64),
		lag:      int64(lag % 64),
		batch:    1 + int(batch%64),
	}
	c.slide = 1 + int64(slide)%c.size
	nkeys := 4 + int(keys%497)
	maxDisorder := 1 + int64(disorder%128)
	r := rand.New(rand.NewSource(seed))
	c.events = make([]event, 2000)
	for i := range c.events {
		c.events[i] = event{key: fmt.Sprintf("k%d", r.Intn(nkeys)), et: int64(i) - r.Int63n(maxDisorder)}
	}
	return c
}

// checkBatchEquivalence feeds c's stream to one operator through
// Process and to another through ProcessBatch and returns the late
// count both must report. Both watermarks advance after every c.batch
// events, so each row meets the same watermark on either path.
func checkBatchEquivalence(t *testing.T, c equivCase) uint64 {
	t.Helper()
	var scalar, batched []emission
	sop := countOp(c.size, c.slide, c.lateness, &scalar)
	bop := countOp(c.size, c.slide, c.lateness, &batched)
	feed(t, sop, c.events, c.batch, c.lag)
	feedBatches(t, bop, c.events, c.batch, c.lag)
	if len(scalar) != len(batched) {
		t.Fatalf("%v: Process emitted %d windows, ProcessBatch %d", c, len(scalar), len(batched))
	}
	for i := range scalar {
		if scalar[i] != batched[i] {
			t.Fatalf("%v: emission %d: Process %+v, ProcessBatch %+v", c, i, scalar[i], batched[i])
		}
	}
	late := sop.(LateCounter).LateCount()
	if bl := bop.(LateCounter).LateCount(); bl != late {
		t.Fatalf("%v: Process dropped %d late tuples, ProcessBatch %d", c, late, bl)
	}
	return late
}

func TestBatchPathsMatchScalar(t *testing.T) {
	draws := 100
	if testing.Short() {
		draws = 30
	}
	r := rand.New(rand.NewSource(77))
	u8 := func() uint8 { return uint8(r.Intn(256)) }
	lateDraws := 0
	for i := 0; i < draws; i++ {
		c := newEquivCase(r.Int63(), u8(), u8(), u8(), u8(), u8(), u8(), uint16(r.Intn(1<<16)))
		if checkBatchEquivalence(t, c) > 0 {
			lateDraws++
		}
	}
	// Without late drops the late-count half of the property is vacuous.
	if lateDraws == 0 {
		t.Fatalf("none of %d draws dropped a late tuple", draws)
	}
}

func FuzzWindowBatchEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(63), uint8(15), uint8(8), uint8(16), uint8(40), uint8(31), uint16(0))
	f.Add(int64(2), uint8(255), uint8(60), uint8(0), uint8(0), uint8(127), uint8(63), uint16(496))
	f.Add(int64(3), uint8(0), uint8(0), uint8(63), uint8(63), uint8(0), uint8(0), uint16(100))
	f.Fuzz(func(t *testing.T, seed int64, size, slide, lateness, lag, disorder, batch uint8, keys uint16) {
		checkBatchEquivalence(t, newEquivCase(seed, size, slide, lateness, lag, disorder, batch, keys))
	})
}
