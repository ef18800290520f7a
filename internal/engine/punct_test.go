package engine

// Control records ride the jumbo header (tuple.Jumbo.Punct): a
// punctuation is the trailer of the jumbo carrying the data it follows,
// whichever way the consumer takes the batch, and a punctuation-only
// jumbo is invisible to every data counter. Also here: (*task).snapshot() must
// keep producing, byte for byte, the framing earlier checkpoints were
// written with, so that they still restore.

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"testing"

	"briskstream/internal/checkpoint"
	"briskstream/internal/tuple"
)

// arrivalLog records, in arrival order, every row and watermark a sink
// sees — a scalar consumer, fed through the row adapter;
// batchArrivalLog is the same sink made batch-aware.
type arrivalLog struct{ got []string }

func (a *arrivalLog) Process(_ Collector, t *tuple.Tuple) error {
	a.got = append(a.got, fmt.Sprint("row ", t.Int(0)))
	return nil
}

func (a *arrivalLog) OnWatermark(_ Collector, wm int64) error {
	a.got = append(a.got, fmt.Sprint("wm ", wm))
	return nil
}

type batchArrivalLog struct{ arrivalLog }

func (a *batchArrivalLog) ProcessBatch(_ Collector, b *tuple.Batch) error {
	for r := 0; r < b.Len(); r++ {
		a.got = append(a.got, fmt.Sprint("row ", b.Int(0, r)))
	}
	return nil
}

// punctHarness wires spout -> sink and returns the engine, the
// producer's collector, the sink task with its collector, and the
// sink's arrival log.
func punctHarness(t *testing.T, vectorized bool) (*Engine, *collector, *task, *collector, *arrivalLog) {
	t.Helper()
	var log *arrivalLog
	e := buildBatchEngine(t, DefaultConfig(), func() Operator {
		if vectorized {
			op := &batchArrivalLog{}
			log = &op.arrivalLog
			return op
		}
		log = &arrivalLog{}
		return log
	})
	producer, sink := e.byOp["spout"][0], e.byOp["sink"][0]
	return e, &collector{e: e, t: producer}, sink, &collector{e: e, t: sink}, log
}

// TestWatermarkTrailsPartialBatchInOneInsertion: a watermark emitted
// behind a partial buffer leaves as the trailer of the jumbo holding
// exactly those rows — one ring insertion — and is applied after them.
func TestWatermarkTrailsPartialBatchInOneInsertion(t *testing.T) {
	for _, vectorized := range []bool{false, true} { // how the sink consumes: rows, or the columnar batch
		t.Run(fmt.Sprintf("columnar=%v", vectorized), func(t *testing.T) {
			e, pc, sink, sc, log := punctHarness(t, vectorized)
			for i := int64(1); i <= 3; i++ { // 3 << BatchSize: the buffer stays partial
				out := pc.Borrow()
				out.AppendInt(i)
				pc.Send(out)
			}
			pc.EmitWatermark(10)
			if pc.fail != nil {
				t.Fatal(pc.fail)
			}
			if puts, _ := sink.in.Stats(); puts != 1 {
				t.Fatalf("rows + watermark cost %d ring insertions, want 1", puts)
			}
			j, ok, _ := sink.in.TryGet()
			if !ok {
				t.Fatal("nothing enqueued")
			}
			if j.Len() != 3 || j.Punct.Kind != tuple.PunctWatermark || j.Punct.Event != 10 {
				t.Fatalf("jumbo carries %d rows and trailer %+v, want 3 rows and watermark 10", j.Len(), j.Punct)
			}
			if err := e.consumeJumbo(sink, sc, j); err != nil {
				t.Fatal(err)
			}
			if want := []string{"row 1", "row 2", "row 3", "wm 10"}; !slices.Equal(log.got, want) {
				t.Fatalf("sink saw %v, want %v", log.got, want)
			}
		})
	}
}

// TestPunctuationOnlyJumboIsNotData: a watermark with nothing buffered
// travels as an empty header, and consuming it moves no data counter —
// not Processed, not SinkTuples, not the per-tuple queue-wait
// accounting behind brisk_task_queue_wait_batches_total.
func TestPunctuationOnlyJumboIsNotData(t *testing.T) {
	for _, vectorized := range []bool{false, true} {
		e, pc, sink, sc, log := punctHarness(t, vectorized)
		pc.EmitWatermark(10)
		j, ok, _ := sink.in.TryGet()
		if !ok || j.Len() != 0 || j.Punct.Kind != tuple.PunctWatermark {
			t.Fatalf("vectorized=%v: want one punctuation-only jumbo, got ok=%v %+v", vectorized, ok, j)
		}
		if err := e.consumeJumbo(sink, sc, j); err != nil {
			t.Fatal(err)
		}
		if want := []string{"wm 10"}; !slices.Equal(log.got, want) {
			t.Fatalf("vectorized=%v: sink saw %v, want %v", vectorized, log.got, want)
		}
		if n := e.Snapshot()["sink"]; n != 0 {
			t.Errorf("vectorized=%v: Processed[sink] = %d after a punctuation-only jumbo", vectorized, n)
		}
		if n := e.SinkCount(); n != 0 {
			t.Errorf("vectorized=%v: SinkTuples = %d after a punctuation-only jumbo", vectorized, n)
		}
		for _, ts := range e.ProfileSnapshot().Tasks {
			if ts.QueueWaitBatch != 0 || ts.QueueWaitNs != 0 {
				t.Errorf("vectorized=%v: task %s queue-wait accounting moved: %d tuples, %d ns", vectorized, ts.Label(), ts.QueueWaitBatch, ts.QueueWaitNs)
			}
		}
	}
}

// stateSpout / stateOp snapshot one fixed int64 each.
type stateSpout struct{ seqSpout }

func (*stateSpout) Snapshot(enc *checkpoint.Encoder) error { enc.Int64(42); return nil }
func (*stateSpout) Restore(*checkpoint.Decoder) error      { return nil }

type stateOp struct{ Operator }

func (stateOp) Snapshot(enc *checkpoint.Encoder) error { enc.Int64(43); return nil }
func (stateOp) Restore(*checkpoint.Decoder) error      { return nil }

// TestSnapshotFraming pins the checkpoint bytes of the four task shapes
// to the framing every earlier checkpoint was written with (big-endian
// int64s, one-byte flags): source = replayable flag [+ offset], then
// Snapshotter flag [+ state]; operator = watermark, then Snapshotter
// flag [+ state].
func TestSnapshotFraming(t *testing.T) {
	be := func(v byte) []byte { return []byte{0, 0, 0, 0, 0, 0, 0, v} }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	wm := func(w int64) *Timers {
		tm := NewTimers()
		tm.wm = w
		return tm
	}
	for _, tc := range []struct {
		name string
		task *task
		want []byte
	}{
		{"replayable+snapshotter spout", &task{spout: &stateSpout{seqSpout{i: 7}}, tm: NewTimers()},
			cat([]byte{1}, be(7), []byte{1}, be(42))},
		{"plain spout", &task{spout: SpoutFunc(func(Collector) error { return io.EOF }), tm: NewTimers()},
			[]byte{0, 0}},
		{"snapshotter operator", &task{operator: stateOp{sinkOp()}, tm: wm(9)},
			cat(be(9), []byte{1}, be(43))},
		{"stateless operator", &task{operator: sinkOp(), tm: wm(9)},
			cat(be(9), []byte{0})},
	} {
		got, err := tc.task.snapshot()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s: snapshot = %x, want %x", tc.name, got, tc.want)
		}
	}
}
