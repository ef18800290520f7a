package window

// Property tests: tumbling and sliding windows produce correct,
// deterministically-ordered results under event time with out-of-order
// input, and the steady-state aggregation path does not allocate.

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"briskstream/internal/engine"
	"briskstream/internal/tuple"
)

// event is one test input.
type event struct {
	key string
	et  int64
}

// emission records one fired window.
type emission struct {
	key   tuple.Key
	w     Span
	count int64
	sum   int64
}

// countOp builds a counting/summing window op whose emissions append to
// *out (the collector is unused — window tests do not need an engine).
type countAcc struct {
	count int64
	sum   int64
}

func countOp(size, slide, lateness int64, out *[]emission) engine.Operator {
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
	})
}

// feed drives events through the operator with a watermark that lags
// the maximum seen event time by lag (advanced every wmEvery events),
// then flushes with the final watermark. It returns the op for
// inspection.
func feed(t *testing.T, op engine.Operator, events []event, wmEvery int, lag int64) {
	t.Helper()
	tm := engine.NewTimers()
	op.(engine.TimerAware).SetTimers(tm)
	th := op.(engine.TimerHandler)
	fire := func(at int64) error { return th.OnTimer(nil, engine.EventTimer, at) }
	maxEt := int64(-1 << 62)
	in := &tuple.Tuple{}
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
	if err := tm.AdvanceWatermark(engine.WatermarkMax, fire); err != nil {
		t.Fatal(err)
	}
}

// reference computes the expected (key, window) -> count grouping for
// fixed-size windows, assuming nothing is late.
func reference(events []event, size, slide int64) map[string]int64 {
	if slide == 0 {
		slide = size
	}
	want := map[string]int64{}
	for _, ev := range events {
		for start := floorDiv(ev.et, slide) * slide; start > ev.et-size; start -= slide {
			want[fmt.Sprintf("%s/%d", ev.key, start)]++
		}
	}
	return want
}

// genEvents builds a random stream and returns two independent
// bounded-displacement shuffles of it (events move at most maxShift
// positions, so a lagging watermark never makes anything late).
func genEvents(r *rand.Rand, n int, keys []string, maxEt int64, maxShift int) ([]event, []event) {
	base := make([]event, n)
	for i := range base {
		base[i] = event{key: keys[r.Intn(len(keys))], et: r.Int63n(maxEt)}
	}
	shuffle := func(seed int64) []event {
		rr := rand.New(rand.NewSource(seed))
		out := append([]event(nil), base...)
		for i := range out {
			j := i + rr.Intn(min(maxShift, len(out)-i))
			out[i], out[j] = out[j], out[i]
		}
		return out
	}
	return shuffle(1), shuffle(2)
}

func assertSameEmissions(t *testing.T, a, b []emission) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("emission counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("emission %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// assertOrdered checks the session operator's order: ascending fire
// time, then ascending key.
func assertOrdered(t *testing.T, got []emission) {
	t.Helper()
	for i := 1; i < len(got); i++ {
		p, q := got[i-1], got[i]
		if p.w.End > q.w.End {
			t.Fatalf("emissions %d,%d out of window order: %+v then %+v", i-1, i, p, q)
		}
		if p.w.End == q.w.End && p.key.Compare(q.key) >= 0 {
			t.Fatalf("emissions %d,%d out of key order: %+v then %+v", i-1, i, p, q)
		}
	}
}

// assertFireOrder checks the order contract across fire times: window
// ends (so fire times) never decrease, and no (key, window) fires twice.
func assertFireOrder(t *testing.T, got []emission) {
	t.Helper()
	seen := map[string]bool{}
	for i, e := range got {
		if i > 0 && got[i-1].w.End > e.w.End {
			t.Fatalf("emissions %d,%d out of fire-time order: %+v then %+v", i-1, i, got[i-1], e)
		}
		id := fmt.Sprintf("%v/%d", e.key, e.w.Start)
		if seen[id] {
			t.Fatalf("window %s emitted twice", id)
		}
		seen[id] = true
	}
}

// perFire canonicalizes emissions to per-fire-time multisets: each fire
// time's run sorted by key. Within one fire the operator emits in
// first-touch order, which depends on arrival order; two arrival orders
// of one event multiset agree on this form.
func perFire(got []emission) []emission {
	out := slices.Clone(got)
	slices.SortStableFunc(out, func(a, b emission) int {
		if d := cmp.Compare(a.w.End, b.w.End); d != 0 {
			return d
		}
		return a.key.Compare(b.key)
	})
	return out
}

func assertMatchesReference(t *testing.T, got []emission, want map[string]int64, total int64) {
	t.Helper()
	var counted int64
	for _, e := range got {
		id := fmt.Sprintf("%s/%d", e.key, e.w.Start)
		if want[id] != e.count {
			t.Fatalf("window %s: count %d, want %d", id, e.count, want[id])
		}
		if e.sum != e.count {
			t.Fatalf("window %s: sum %d != count %d (per-event value is 1)", id, e.sum, e.count)
		}
		counted += e.count
	}
	if counted != total {
		t.Fatalf("emitted %d event-assignments, want %d", counted, total)
	}
	if len(got) != len(want) {
		t.Fatalf("emitted %d windows, want %d", len(got), len(want))
	}
}

func runWindowProperty(t *testing.T, size, slide int64, assignsPer int64) {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	keys := []string{"alpha", "beta", "gamma", "delta", "eps"}
	for trial := 0; trial < 5; trial++ {
		const n = 1500
		permA, permB := genEvents(r, n, keys, 5000, 64)
		want := reference(permA, size, slide)

		var outA, outB []emission
		// Lag must cover shuffle displacement in event time; events span
		// 5000 units over 1500 positions, so 64 positions never exceed
		// ~5000 of displacement — use a full-range lag to keep every
		// tuple on time while still firing windows mid-stream.
		opA := countOp(size, slide, 0, &outA)
		feed(t, opA, permA, 100, 5000)
		opB := countOp(size, slide, 0, &outB)
		feed(t, opB, permB, 37, 5000)

		if lc := opA.(LateCounter).LateCount(); lc != 0 {
			t.Fatalf("trial %d: %d tuples dropped late; generator promised none", trial, lc)
		}
		assertMatchesReference(t, outA, want, n*assignsPer)
		assertFireOrder(t, outA)
		assertFireOrder(t, outB)
		// Same multiset of events, different arrival order and watermark
		// cadence: the same windows fire at each fire time.
		assertSameEmissions(t, perFire(outA), perFire(outB))
	}
}

func TestTumblingCorrectDeterministicOrdered(t *testing.T) {
	runWindowProperty(t, 250, 0, 1)
}

func TestSlidingCorrectDeterministicOrdered(t *testing.T) {
	// Slide 50 on size 200: every event lands in 4 panes.
	runWindowProperty(t, 200, 50, 4)
}

func TestLateTuplesDroppedNotResurrected(t *testing.T) {
	var out []emission
	op := countOp(100, 0, 0, &out)
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
	add("a", 10)
	add("a", 90)
	tm.AdvanceWatermark(150, fire) // window [0,100) fires with count 2
	if len(out) != 1 || out[0].count != 2 {
		t.Fatalf("out = %+v", out)
	}
	add("a", 50) // behind the watermark, window fired: dropped
	add("a", 160)
	tm.AdvanceWatermark(engine.WatermarkMax, fire)
	if len(out) != 2 || out[1].w.Start != 100 || out[1].count != 1 {
		t.Fatalf("out = %+v", out)
	}
	if lc := op.(LateCounter).LateCount(); lc != 1 {
		t.Fatalf("late count = %d, want 1", lc)
	}
}

// TestPartiallyLateTupleKeepsOpenPanes: a sliding-window tuple whose
// oldest panes have fired still lands in the open ones and is not
// counted late; only a tuple with no open pane left counts.
func TestPartiallyLateTupleKeepsOpenPanes(t *testing.T) {
	var out []emission
	op := countOp(100, 50, 0, &out)
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
	add(10)
	tm.AdvanceWatermark(160, fire) // windows ending <= 160 fired
	add(120)                       // [50,150) fired, [100,200) open: accepted, not late
	if lc := op.(LateCounter).LateCount(); lc != 0 {
		t.Fatalf("partially late tuple counted as dropped (late=%d)", lc)
	}
	add(40) // [-50,50) and [0,100) both fired: fully dropped
	if lc := op.(LateCounter).LateCount(); lc != 1 {
		t.Fatalf("late = %d, want 1", lc)
	}
	tm.AdvanceWatermark(engine.WatermarkMax, fire)
	var got int64
	for _, e := range out {
		if e.w == (Span{100, 200}) {
			got = e.count
		}
	}
	if got != 1 {
		t.Fatalf("open pane [100,200) count = %d, want the partially-late tuple in it", got)
	}
}

func TestLatenessExtendsFireTime(t *testing.T) {
	var out []emission
	op := countOp(100, 0, 25, &out)
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
	add(10)
	tm.AdvanceWatermark(110, fire) // past end (100) but inside lateness
	if len(out) != 0 {
		t.Fatalf("window fired before end+lateness: %+v", out)
	}
	add(90) // still accepted: fire time 125 > watermark 110
	tm.AdvanceWatermark(125, fire)
	if len(out) != 1 || out[0].count != 2 {
		t.Fatalf("out = %+v", out)
	}
	if lc := op.(LateCounter).LateCount(); lc != 0 {
		t.Fatalf("late count = %d", lc)
	}
}

func TestFlushOpenDrainsWithoutWatermarks(t *testing.T) {
	// No timer service at all — the profiling-harness path.
	var out []emission
	op := countOp(100, 0, 0, &out)
	var events []event
	for i := 0; i < 10; i++ {
		events = append(events, event{key: fmt.Sprintf("k%d", i%3), et: int64(i * 40)})
	}
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
	if err := op.(Flusher).FlushOpen(nil); err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, out, reference(events, 100, 0), 10)
	assertFireOrder(t, out)
}

// TestWindowedAddPathAllocFree guards the acceptance criterion: the
// steady-state windowed-aggregation path (existing window, existing
// key) performs no per-tuple allocation.
func TestWindowedAddPathAllocFree(t *testing.T) {
	var out []emission
	op := countOp(1_000_000, 0, 0, &out) // one huge window: no fires during measurement
	tm := engine.NewTimers()
	op.(engine.TimerAware).SetTimers(tm)

	keys := []string{"alpha", "beta", "gamma", "delta"}
	in := &tuple.Tuple{}
	i := 0
	emitOne := func() {
		in.Reset()
		in.AppendStr(keys[i%len(keys)])
		in.AppendInt(1)
		in.Event = int64(i % 1000)
		if err := op.Process(nil, in); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for n := 0; n < 100; n++ {
		emitOne() // open the windows
	}
	avg := testing.AllocsPerRun(5000, emitOne)
	if avg > 0 {
		t.Errorf("windowed add path allocates %.3f/tuple in steady state, want 0", avg)
	}
}

// TestEmissionOrderIsFirstTouch pins the order contract: within one fire
// time the windows come out in the order their keys first touched them,
// and one row sequence always yields one emission sequence.
func TestEmissionOrderIsFirstTouch(t *testing.T) {
	var out []emission
	op := countOp(100, 50, 0, &out) // sliding: each row touches two windows
	rows := []event{{"q", 10}, {"b", 20}, {"z", 60}, {"a", 30}, {"b", 70}, {"q", 80}, {"m", 120}}
	feed(t, op, rows, len(rows), 0) // nothing fires before the last row
	want := map[Span]string{
		{-50, 50}:  "[q b a]",
		{0, 100}:   "[q b z a]",
		{50, 150}:  "[z b q m]",
		{100, 200}: "[m]",
	}
	got := map[Span][]string{}
	for _, e := range out {
		got[e.w] = append(got[e.w], e.key.Str())
	}
	for w, keys := range want {
		if fmt.Sprint(got[w]) != keys {
			t.Errorf("window %v emitted %v, want first-touch order %s", w, got[w], keys)
		}
	}
	assertFireOrder(t, out)

	// Two operators, one row sequence (500 keys: the tables grow), two
	// watermark cadences: identical emission sequences.
	events, _ := genEvents(rand.New(rand.NewSource(3)), 4000, keyNames(500), 5000, 64)
	var outA, outB []emission
	feed(t, countOp(250, 50, 0, &outA), events, 100, 5000)
	feed(t, countOp(250, 50, 0, &outB), events, 37, 5000)
	assertSameEmissions(t, outA, outB)
}

func keyNames(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	return keys
}

// symCountOp counts rows per symbol key; Emit only tallies, so the
// operator's own allocations are what a measurement sees.
func symCountOp(size int64, fired *int) engine.Operator {
	return New(Op[int64]{
		KeyField: 0,
		Size:     size,
		Init:     func(a *int64) { *a = 0 },
		Add:      func(a *int64, b *tuple.Batch, r int) { *a++ },
		Emit:     func(c engine.Collector, key tuple.Key, w Span, a *int64) { *fired++ },
	})
}

func wideSyms(n int) []tuple.Sym {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("wide-sym-%d", i)
	}
	return tuple.InternSyms(names...)
}

// TestWideKeyFireCycleAllocFree: with 10 000 symbol keys per window,
// the open → fire → re-open cycle allocates nothing per row once the
// recycled pane tables have grown, through Process and ProcessBatch.
func TestWideKeyFireCycleAllocFree(t *testing.T) {
	const keys = 10_000
	syms := wideSyms(keys)
	for _, batchRows := range []int{0, 100} {
		fired := 0
		op := symCountOp(keys, &fired)
		tm := engine.NewTimers()
		op.(engine.TimerAware).SetTimers(tm)
		th := op.(engine.TimerHandler)
		fire := func(at int64) error { return th.OnTimer(nil, engine.EventTimer, at) }
		in := &tuple.Tuple{}
		b := tuple.NewBatch(max(batchRows, 1))
		et := int64(0)
		step := func() {
			in.Reset()
			in.AppendSym(syms[et%keys])
			in.Event = et
			if batchRows == 0 {
				if err := op.Process(nil, in); err != nil {
					t.Fatal(err)
				}
			} else if b.Append(in); b.Full() {
				if err := op.(engine.BatchOperator).ProcessBatch(nil, b); err != nil {
					t.Fatal(err)
				}
				b.Reset()
			}
			et++
			if et%keys == 0 { // a window is complete: fire it
				if err := tm.AdvanceWatermark(et, fire); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 3*keys; i++ {
			step() // warm-up: the two alternating tables reach full size
		}
		if avg := testing.AllocsPerRun(3*keys, step); avg > 0 {
			t.Errorf("batchRows=%d: wide-key window cycle allocates %.4f/row, want 0", batchRows, avg)
		}
		if want := (6*keys + 1) / keys * keys; fired != want {
			t.Errorf("batchRows=%d: fired %d windows, want %d", batchRows, fired, want)
		}
	}
}

// BenchmarkWindowWideSymKeys: 100 000 symbol keys in one tumbling
// window, each touched once through Process (first-touch accumulate),
// then the window fires. Reports add_ns/key and fire_ns/key; one
// warm-up window runs first, so the measured ones reuse its table.
func BenchmarkWindowWideSymKeys(b *testing.B) {
	const keys = 100_000
	syms := wideSyms(keys)
	fired := 0
	op := symCountOp(keys, &fired)
	tm := engine.NewTimers()
	op.(engine.TimerAware).SetTimers(tm)
	th := op.(engine.TimerHandler)
	fire := func(at int64) error { return th.OnTimer(nil, engine.EventTimer, at) }
	in := &tuple.Tuple{}
	var add, drain time.Duration
	window := func(w int64) {
		t0 := time.Now()
		for i, s := range syms {
			in.Reset()
			in.AppendSym(s)
			in.Event = w*keys + int64(i)
			if err := op.Process(nil, in); err != nil {
				b.Fatal(err)
			}
		}
		t1 := time.Now()
		fired = 0
		if err := tm.AdvanceWatermark((w+1)*keys, fire); err != nil {
			b.Fatal(err)
		}
		drain += time.Since(t1)
		add += t1.Sub(t0)
		if fired != keys {
			b.Fatalf("window %d fired %d panes, want %d", w, fired, keys)
		}
	}
	window(0)
	add, drain = 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window(int64(i + 1))
	}
	b.ReportMetric(float64(add.Nanoseconds())/float64(b.N*keys), "add_ns/key")
	b.ReportMetric(float64(drain.Nanoseconds())/float64(b.N*keys), "fire_ns/key")
}
