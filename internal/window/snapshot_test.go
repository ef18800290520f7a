package window

// Snapshot/restore tests: a window operator checkpointed mid-stream and
// restored into a fresh instance must continue exactly like the
// original, and the encoding must be byte-stable (the same state always
// serializes to the same bytes).

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
	"briskstream/internal/tuple"
)

// snapCountOp is countOp plus the Save/Load codec checkpointing needs.
func snapCountOp(size, slide, lateness int64, out *[]emission) engine.Operator {
	return New(Op[countAcc]{
		KeyField: 0,
		Size:     size,
		Slide:    slide,
		Lateness: lateness,
		Init:     func(a *countAcc) { *a = countAcc{} },
		Add: func(a *countAcc, b *tuple.Batch, r int) {
			a.count++
			a.sum += b.Int(1, r)
		},
		Emit: func(c engine.Collector, key tuple.Key, w Span, a *countAcc) {
			*out = append(*out, emission{key: key, w: w, count: a.count, sum: a.sum})
		},
		Save: func(enc *checkpoint.Encoder, a *countAcc) {
			enc.Int64(a.count)
			enc.Int64(a.sum)
		},
		Load: func(dec *checkpoint.Decoder, a *countAcc) error {
			a.count = dec.Int64()
			a.sum = dec.Int64()
			return nil
		},
	})
}

// drive processes events through op, advancing the watermark (with lag)
// every wmEvery events.
func drive(t *testing.T, op engine.Operator, tm *engine.Timers, events []event, wmEvery int, lag int64) {
	t.Helper()
	th := op.(engine.TimerHandler)
	fire := func(at int64) error { return th.OnTimer(nil, engine.EventTimer, at) }
	in := &tuple.Tuple{}
	maxEt := int64(-1 << 62)
	for i, ev := range events {
		in.Reset()
		in.AppendStr(ev.key)
		in.AppendInt(1)
		in.Event = ev.et
		if err := op.Process(nil, in); err != nil {
			t.Fatal(err)
		}
		if ev.et > maxEt {
			maxEt = ev.et
		}
		if (i+1)%wmEvery == 0 {
			if err := tm.AdvanceWatermark(maxEt-lag, fire); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func finish(t *testing.T, op engine.Operator, tm *engine.Timers) {
	t.Helper()
	th := op.(engine.TimerHandler)
	if err := tm.AdvanceWatermark(engine.WatermarkMax, func(at int64) error {
		return th.OnTimer(nil, engine.EventTimer, at)
	}); err != nil {
		t.Fatal(err)
	}
}

func randomEvents(seed int64, n int, keys []string, spread int64) []event {
	r := rand.New(rand.NewSource(seed))
	evs := make([]event, n)
	for i := range evs {
		evs[i] = event{key: keys[r.Intn(len(keys))], et: int64(i) + r.Int63n(spread)}
	}
	return evs
}

func TestWindowSnapshotRestoreContinues(t *testing.T) {
	for _, cfg := range []struct {
		name                  string
		size, slide, lateness int64
	}{
		{"tumbling", 64, 0, 0},
		{"sliding", 96, 32, 16},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			keys := []string{"a", "b", "c", "d"}
			events := randomEvents(11, 4000, keys, 24)
			half := len(events) / 2

			// Reference: one operator sees the whole stream.
			var want []emission
			ref := snapCountOp(cfg.size, cfg.slide, cfg.lateness, &want)
			tmRef := engine.NewTimers()
			ref.(engine.TimerAware).SetTimers(tmRef)
			drive(t, ref, tmRef, events, 16, 8)
			finish(t, ref, tmRef)

			// Original: first half, then snapshot (twice — byte-stability).
			var gotA []emission
			opA := snapCountOp(cfg.size, cfg.slide, cfg.lateness, &gotA)
			tmA := engine.NewTimers()
			opA.(engine.TimerAware).SetTimers(tmA)
			drive(t, opA, tmA, events[:half], 16, 8)
			enc := checkpoint.NewEncoder()
			if err := opA.(checkpoint.Snapshotter).Snapshot(enc); err != nil {
				t.Fatal(err)
			}
			snap := append([]byte(nil), enc.Bytes()...)
			enc2 := checkpoint.NewEncoder()
			if err := opA.(checkpoint.Snapshotter).Snapshot(enc2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap, enc2.Bytes()) {
				t.Fatal("two snapshots of the same state differ byte-wise")
			}

			// Restored: a fresh operator rebuilt at the cut. Its timer
			// service starts fresh too (the engine resets timers before
			// applying a restore) but carries the cut's watermark.
			gotB := append([]emission(nil), gotA...)
			opB := snapCountOp(cfg.size, cfg.slide, cfg.lateness, &gotB)
			tmB := engine.NewTimers()
			opB.(engine.TimerAware).SetTimers(tmB)
			if err := opB.(checkpoint.Snapshotter).Restore(checkpoint.NewDecoder(snap)); err != nil {
				t.Fatal(err)
			}
			// Replay the watermark the original had reached (restores are
			// followed by source replay, which re-advances event time).
			if wm := tmA.Watermark(); wm > engine.WatermarkMin {
				if err := tmB.AdvanceWatermark(wm, func(at int64) error {
					return opB.(engine.TimerHandler).OnTimer(nil, engine.EventTimer, at)
				}); err != nil {
					t.Fatal(err)
				}
			}
			drive(t, opB, tmB, events[half:], 16, 8)
			finish(t, opB, tmB)

			// Restore re-opens panes in snapshot (start, key) order, not
			// the original first-touch order, so compare per fire time.
			assertFireOrder(t, gotB)
			if fmt.Sprint(perFire(gotB)) != fmt.Sprint(perFire(want)) {
				t.Fatalf("restored continuation diverged:\n got %d emissions %v\nwant %d emissions %v",
					len(gotB), perFire(gotB), len(want), perFire(want))
			}
		})
	}
}

func TestWindowSnapshotWithoutCodecFails(t *testing.T) {
	var out []emission
	op := countOp(64, 0, 0, &out) // no Save/Load
	if err := op.(checkpoint.Snapshotter).Snapshot(checkpoint.NewEncoder()); err == nil {
		t.Fatal("Snapshot without Save/Load must fail")
	}
	if err := op.(checkpoint.Snapshotter).Restore(checkpoint.NewDecoder(nil)); err == nil {
		t.Fatal("Restore without Save/Load must fail")
	}
}

// sessEmission records one closed session.
type sessEmission struct {
	key tuple.Key
	w   Span
	n   int64
}

func snapSessionOp(gap, lateness int64, out *[]sessEmission) engine.Operator {
	type acc struct{ n int64 }
	return NewSession(SessionOp[acc]{
		KeyField: 0,
		Gap:      gap,
		Lateness: lateness,
		Init:     func(a *acc) { a.n = 0 },
		Add:      func(a *acc, b *tuple.Batch, r int) { a.n++ },
		Merge:    func(dst, src *acc) { dst.n += src.n },
		Emit: func(c engine.Collector, key tuple.Key, w Span, a *acc) {
			*out = append(*out, sessEmission{key: key, w: w, n: a.n})
		},
		Save: func(enc *checkpoint.Encoder, a *acc) { enc.Int64(a.n) },
		Load: func(dec *checkpoint.Decoder, a *acc) error { a.n = dec.Int64(); return nil },
	})
}

func TestSessionSnapshotRestoreContinues(t *testing.T) {
	keys := []string{"x", "y", "z"}
	// Bursty events so sessions open, extend, merge and close.
	r := rand.New(rand.NewSource(23))
	events := make([]event, 3000)
	base := int64(0)
	for i := range events {
		if r.Intn(10) == 0 {
			base += 40 // quiet gap: sessions close
		}
		base += r.Int63n(6)
		events[i] = event{key: keys[r.Intn(len(keys))], et: base}
	}
	half := len(events) / 2

	var want []sessEmission
	ref := snapSessionOp(16, 0, &want)
	tmRef := engine.NewTimers()
	ref.(engine.TimerAware).SetTimers(tmRef)
	drive(t, ref, tmRef, events, 8, 4)
	finish(t, ref, tmRef)

	var gotA []sessEmission
	opA := snapSessionOp(16, 0, &gotA)
	tmA := engine.NewTimers()
	opA.(engine.TimerAware).SetTimers(tmA)
	drive(t, opA, tmA, events[:half], 8, 4)
	enc := checkpoint.NewEncoder()
	if err := opA.(checkpoint.Snapshotter).Snapshot(enc); err != nil {
		t.Fatal(err)
	}
	snap := append([]byte(nil), enc.Bytes()...)
	enc2 := checkpoint.NewEncoder()
	if err := opA.(checkpoint.Snapshotter).Snapshot(enc2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, enc2.Bytes()) {
		t.Fatal("two session snapshots of the same state differ byte-wise")
	}

	gotB := append([]sessEmission(nil), gotA...)
	opB := snapSessionOp(16, 0, &gotB)
	tmB := engine.NewTimers()
	opB.(engine.TimerAware).SetTimers(tmB)
	if err := opB.(checkpoint.Snapshotter).Restore(checkpoint.NewDecoder(snap)); err != nil {
		t.Fatal(err)
	}
	if wm := tmA.Watermark(); wm > engine.WatermarkMin {
		if err := tmB.AdvanceWatermark(wm, func(at int64) error {
			return opB.(engine.TimerHandler).OnTimer(nil, engine.EventTimer, at)
		}); err != nil {
			t.Fatal(err)
		}
	}
	drive(t, opB, tmB, events[half:], 8, 4)
	finish(t, opB, tmB)

	if fmt.Sprint(gotB) != fmt.Sprint(want) {
		t.Fatalf("restored session continuation diverged:\n got %v\nwant %v", gotB, want)
	}
}

// Typed keys must be byte-stable and identity-preserving across a
// snapshot round-trip: for every key kind, a restored operator's keys
// must equal the keys replayed tuples produce (one accumulator per
// key, no splitting — the old int→int64 canonicalization hack is gone
// because the slot representation has exactly one integer kind), and
// re-snapshotting the restored state must reproduce the original bytes
// exactly.
func TestWindowSnapshotTypedKeysByteStableRoundTrip(t *testing.T) {
	fill := map[string]func(in *tuple.Tuple){
		"int":    func(in *tuple.Tuple) { in.AppendInt(7) },
		"float":  func(in *tuple.Tuple) { in.AppendFloat(2.5) },
		"bool":   func(in *tuple.Tuple) { in.AppendBool(true) },
		"string": func(in *tuple.Tuple) { in.AppendStr("typed-key") },
		"symbol": func(in *tuple.Tuple) { in.AppendSym(tuple.InternSym("typed-key-sym")) },
	}
	for name, appendKey := range fill {
		t.Run(name, func(t *testing.T) {
			var got []emission
			op := snapCountOp(64, 0, 0, &got)
			tm := engine.NewTimers()
			op.(engine.TimerAware).SetTimers(tm)
			in := &tuple.Tuple{}
			feedOne := func(et int64, target engine.Operator) {
				in.Reset()
				appendKey(in)
				in.AppendInt(1)
				in.Event = et
				if err := target.Process(nil, in); err != nil {
					t.Fatal(err)
				}
			}
			feedOne(10, op)
			feedOne(11, op)
			enc := checkpoint.NewEncoder()
			if err := op.(checkpoint.Snapshotter).Snapshot(enc); err != nil {
				t.Fatal(err)
			}
			snap := append([]byte(nil), enc.Bytes()...)

			restored := append([]emission(nil), got...)
			op2 := snapCountOp(64, 0, 0, &restored)
			tm2 := engine.NewTimers()
			op2.(engine.TimerAware).SetTimers(tm2)
			if err := op2.(checkpoint.Snapshotter).Restore(checkpoint.NewDecoder(snap)); err != nil {
				t.Fatal(err)
			}
			// Byte stability: the restored state re-encodes to the exact
			// original bytes.
			enc2 := checkpoint.NewEncoder()
			if err := op2.(checkpoint.Snapshotter).Snapshot(enc2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap, enc2.Bytes()) {
				t.Fatalf("restored state re-encodes differently:\n %x\n %x", snap, enc2.Bytes())
			}
			// Key identity: a replayed tuple folds into the restored
			// accumulator instead of opening a second one.
			feedOne(12, op2)
			if err := tm2.AdvanceWatermark(engine.WatermarkMax, func(at int64) error {
				return op2.(engine.TimerHandler).OnTimer(nil, engine.EventTimer, at)
			}); err != nil {
				t.Fatal(err)
			}
			if len(restored) != 1 || restored[0].count != 3 {
				t.Fatalf("%s key split across the round-trip: emissions %v, want one window with count 3", name, restored)
			}
		})
	}
}

func TestValidateSnapshotReportsMissingCodecs(t *testing.T) {
	var out []emission
	bad := countOp(64, 0, 0, &out) // no Save/Load
	if err := bad.(checkpoint.Validator).ValidateSnapshot(); err == nil {
		t.Fatal("window without codecs must fail validation")
	}
	good := snapCountOp(64, 0, 0, &out)
	if err := good.(checkpoint.Validator).ValidateSnapshot(); err != nil {
		t.Fatal(err)
	}
	var sout []sessEmission
	badS := NewSession(SessionOp[struct{ n int64 }]{
		KeyField: 0, Gap: 8,
		Init:  func(a *struct{ n int64 }) {},
		Add:   func(a *struct{ n int64 }, b *tuple.Batch, r int) {},
		Merge: func(dst, src *struct{ n int64 }) {},
		Emit:  func(c engine.Collector, key tuple.Key, w Span, a *struct{ n int64 }) {},
	})
	if err := badS.(checkpoint.Validator).ValidateSnapshot(); err == nil {
		t.Fatal("session without codecs must fail validation")
	}
	goodS := snapSessionOp(8, 0, &sout)
	if err := goodS.(checkpoint.Validator).ValidateSnapshot(); err != nil {
		t.Fatal(err)
	}
}
