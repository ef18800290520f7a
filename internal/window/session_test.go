package window

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"briskstream/internal/engine"
	"briskstream/internal/tuple"
)

func sessionCountOp(gap, lateness int64, out *[]emission) engine.Operator {
	return NewSession(SessionOp[countAcc]{
		KeyField: 0,
		Gap:      gap,
		Lateness: lateness,
		Init:     func(a *countAcc) { *a = countAcc{} },
		Add: func(a *countAcc, b *tuple.Batch, r int) {
			a.count++
			a.sum += b.Int(1, r)
		},
		Merge: func(dst, src *countAcc) {
			dst.count += src.count
			dst.sum += src.sum
		},
		Emit: func(c engine.Collector, key tuple.Key, w Span, a *countAcc) {
			*out = append(*out, emission{key: key, w: w, count: a.count, sum: a.sum})
		},
	})
}

// sessionReference computes expected sessions: per key, sort event
// times, split where consecutive events are >= gap apart.
func sessionReference(events []event, gap int64) map[string]int64 {
	byKey := map[string][]int64{}
	for _, ev := range events {
		byKey[ev.key] = append(byKey[ev.key], ev.et)
	}
	want := map[string]int64{} // "key/start/end" -> count
	for k, ets := range byKey {
		slices.Sort(ets)
		start, count := ets[0], int64(1)
		last := ets[0]
		for _, et := range ets[1:] {
			if et-last >= gap {
				want[fmt.Sprintf("%s/%d/%d", k, start, last+gap)] = count
				start, count = et, 0
			}
			count++
			last = et
		}
		want[fmt.Sprintf("%s/%d/%d", k, start, last+gap)] = count
	}
	return want
}

func TestSessionMergesBridgingEvents(t *testing.T) {
	var out []emission
	op := sessionCountOp(50, 0, &out)
	tm := engine.NewTimers()
	op.(engine.TimerAware).SetTimers(tm)
	th := op.(engine.TimerHandler)
	fire := func(at int64) error { return th.OnTimer(nil, engine.EventTimer, at) }

	in := &tuple.Tuple{}
	add := func(key string, et int64) {
		in.Reset()
		in.AppendStr(key)
		in.AppendInt(1)
		in.Event = et
		if err := op.Process(nil, in); err != nil {
			t.Fatal(err)
		}
	}
	// Two separate sessions for "a"...
	add("a", 0)
	add("a", 100)
	if got := op.(*sessionOp[countAcc]).OpenSessions(); got != 2 {
		t.Fatalf("open sessions = %d, want 2", got)
	}
	// ...bridged into one by an event overlapping both ([60,110) meets
	// [100,150), then [20,70) meets both [0,50) and [60,150)).
	add("a", 60)
	add("a", 20)
	if got := op.(*sessionOp[countAcc]).OpenSessions(); got != 1 {
		t.Fatalf("open sessions after bridge = %d, want 1", got)
	}
	tm.AdvanceWatermark(engine.WatermarkMax, fire)
	if len(out) != 1 {
		t.Fatalf("out = %+v", out)
	}
	if out[0].w != (Span{0, 150}) || out[0].count != 4 {
		t.Fatalf("merged session = %+v, want [0,150) count 4", out[0])
	}
}

func TestSessionFiresOnGapNotAtEnd(t *testing.T) {
	var out []emission
	op := sessionCountOp(50, 0, &out)
	tm := engine.NewTimers()
	op.(engine.TimerAware).SetTimers(tm)
	th := op.(engine.TimerHandler)
	fire := func(at int64) error { return th.OnTimer(nil, engine.EventTimer, at) }

	in := &tuple.Tuple{}
	add := func(et int64) {
		in.Reset()
		in.AppendStr("k")
		in.AppendInt(1)
		in.Event = et
		op.Process(nil, in)
	}
	add(0)
	add(30) // extends the session to [0, 80)
	tm.AdvanceWatermark(60, fire)
	if len(out) != 0 {
		t.Fatalf("session fired early (stale timer at 50 must be ignored): %+v", out)
	}
	tm.AdvanceWatermark(80, fire)
	if len(out) != 1 || out[0].w != (Span{0, 80}) || out[0].count != 2 {
		t.Fatalf("out = %+v", out)
	}
	// A fresh event after the close starts a new session.
	add(200)
	tm.AdvanceWatermark(engine.WatermarkMax, fire)
	if len(out) != 2 || out[1].w != (Span{200, 250}) {
		t.Fatalf("out = %+v", out)
	}
}

func TestSessionLateDrop(t *testing.T) {
	var out []emission
	op := sessionCountOp(50, 0, &out)
	tm := engine.NewTimers()
	op.(engine.TimerAware).SetTimers(tm)
	th := op.(engine.TimerHandler)
	fire := func(at int64) error { return th.OnTimer(nil, engine.EventTimer, at) }

	in := &tuple.Tuple{}
	add := func(et int64) {
		in.Reset()
		in.AppendStr("k")
		in.AppendInt(1)
		in.Event = et
		op.Process(nil, in)
	}
	add(0)
	tm.AdvanceWatermark(100, fire) // session [0,50) fired
	add(10)                        // 10+50 <= 100: late, dropped
	tm.AdvanceWatermark(engine.WatermarkMax, fire)
	if len(out) != 1 {
		t.Fatalf("out = %+v", out)
	}
	if lc := op.(LateCounter).LateCount(); lc != 1 {
		t.Fatalf("late = %d, want 1", lc)
	}
}

// TestSessionPropertyDeterministic: random bursty streams, two bounded
// shuffles — identical, reference-matching, ordered output.
func TestSessionPropertyDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	keys := []string{"w1", "w2", "w3", "w4"}
	const gap = 40
	for trial := 0; trial < 5; trial++ {
		// Bursty: sessions are clusters with intra-gap spacing.
		var base []event
		for _, k := range keys {
			cursor := int64(r.Intn(100))
			for s := 0; s < 6; s++ {
				for e := 0; e < 1+r.Intn(8); e++ {
					base = append(base, event{key: k, et: cursor})
					cursor += int64(r.Intn(int(gap)))
				}
				cursor += gap + int64(r.Intn(200)) // inactivity: close the session
			}
		}
		permA := append([]event(nil), base...)
		r.Shuffle(len(permA), func(i, j int) { permA[i], permA[j] = permA[j], permA[i] })
		permB := append([]event(nil), base...)
		r.Shuffle(len(permB), func(i, j int) { permB[i], permB[j] = permB[j], permB[i] })

		want := sessionReference(base, gap)
		run := func(events []event) []emission {
			var out []emission
			op := sessionCountOp(gap, 0, &out)
			tm := engine.NewTimers()
			op.(engine.TimerAware).SetTimers(tm)
			th := op.(engine.TimerHandler)
			in := &tuple.Tuple{}
			for _, ev := range events {
				in.Reset()
				in.AppendStr(ev.key)
				in.AppendInt(1)
				in.Event = ev.et
				if err := op.Process(nil, in); err != nil {
					t.Fatal(err)
				}
			}
			// Full shuffles need the watermark held back until the end.
			if err := tm.AdvanceWatermark(engine.WatermarkMax, func(at int64) error {
				return th.OnTimer(nil, engine.EventTimer, at)
			}); err != nil {
				t.Fatal(err)
			}
			return out
		}
		outA, outB := run(permA), run(permB)
		if len(outA) != len(want) {
			t.Fatalf("trial %d: %d sessions, want %d", trial, len(outA), len(want))
		}
		for _, e := range outA {
			id := fmt.Sprintf("%s/%d/%d", e.key, e.w.Start, e.w.End)
			if want[id] != e.count {
				t.Fatalf("trial %d: session %s count %d, want %d", trial, id, e.count, want[id])
			}
		}
		assertOrdered(t, outA)
		assertSameEmissions(t, outA, outB)
	}
}
