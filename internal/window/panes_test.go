package window

// Pane-table property: the per-fire-time open-addressed tables, fed a
// seeded mix of every key kind, aggregate exactly what a plain Go map
// keyed by (key, window start) does — across table growth, recycling
// and a snapshot/restore round trip.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
	"briskstream/internal/state"
	"briskstream/internal/tuple"
)

// mixedKeys returns keys of every kind. Several share a payload and
// differ only in kind (Key{}, IntKey(0), FloatKey(+0), BoolKey(false));
// the float keys include −0.0 beside +0.0 and NaNs with distinct
// payloads, all distinct under ==. The int keys include negative
// values, a dense run and a run differing only in the high bits, so
// clustered ids must not cluster in the table.
func mixedKeys(r *rand.Rand, n int) []tuple.Key {
	keys := []tuple.Key{
		{},
		tuple.BoolKey(false), tuple.BoolKey(true),
		tuple.FloatKey(0), tuple.FloatKey(math.Copysign(0, -1)),
		tuple.FloatKey(math.NaN()), tuple.FloatKey(math.Float64frombits(0x7ff8000000000abc)),
		tuple.FloatKey(math.Inf(1)), tuple.FloatKey(-2.5),
		tuple.IntKey(0), tuple.IntKey(-1), tuple.IntKey(math.MinInt64), tuple.IntKey(math.MaxInt64),
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("pane-prop-%d", i)
	}
	syms := tuple.InternSyms(names...)
	for i := 0; i < n; i++ {
		keys = append(keys,
			tuple.IntKey(int64(i)),
			tuple.IntKey(int64(i)<<40),
			tuple.IntKey(-r.Int63()),
			tuple.FloatKey(r.NormFloat64()),
			tuple.StrKey(names[i]),
			tuple.SymKey(syms[i]))
	}
	return keys
}

func TestPaneTableMatchesMapReference(t *testing.T) {
	const size = 100
	r := rand.New(rand.NewSource(9))
	pool := mixedKeys(r, 2000) // 12k+ keys: a full table grows ten times
	var got []emission
	op := snapCountOp(size, 0, 0, &got).(*windowOp[countAcc])
	tm := engine.NewTimers()
	op.SetTimers(tm)
	fire := func(at int64) error { return op.OnTimer(nil, engine.EventTimer, at) }

	want := map[winKey]countAcc{}
	// Phases alternate wide and narrow key sets, so recycled tables that
	// grew large serve small windows and the reverse. Each phase fills
	// two windows, then the older one fires.
	for phase := int64(0); phase < 8; phase++ {
		keys := pool
		if phase%2 == 1 {
			keys = pool[:20]
		}
		for i := 0; i < 3*len(keys); i++ {
			k := keys[r.Intn(len(keys))]
			start := (phase + r.Int63n(2)) * size
			acc := op.pane(op.table(start), k)
			acc.count++
			acc.sum += start
			ref := want[winKey{k, start}]
			ref.count++
			ref.sum += start
			want[winKey{k, start}] = ref
		}
		if phase == 4 { // the restored operator must continue identically
			enc := checkpoint.NewEncoder()
			if err := op.Snapshot(enc); err != nil {
				t.Fatal(err)
			}
			op = snapCountOp(size, 0, 0, &got).(*windowOp[countAcc])
			tm = engine.NewTimers()
			op.SetTimers(tm)
			if err := op.Restore(checkpoint.NewDecoder(enc.Bytes())); err != nil {
				t.Fatal(err)
			}
			enc2 := checkpoint.NewEncoder()
			if err := op.Snapshot(enc2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
				t.Fatal("restored mixed-kind state re-encodes differently")
			}
		}
		if err := tm.AdvanceWatermark((phase+1)*size, fire); err != nil {
			t.Fatal(err)
		}
	}
	if err := tm.AdvanceWatermark(engine.WatermarkMax, fire); err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("emitted %d windows, want %d", len(got), len(want))
	}
	seen := map[winKey]bool{}
	for i, e := range got {
		if i > 0 && got[i-1].w.End > e.w.End {
			t.Fatalf("fire times out of order at emission %d", i)
		}
		wk := winKey{e.key, e.w.Start}
		if seen[wk] {
			t.Fatalf("window (%v, %d) emitted twice", e.key, e.w.Start)
		}
		seen[wk] = true
		ref, ok := want[wk]
		if !ok || ref.count != e.count || ref.sum != e.sum {
			t.Fatalf("window (%v kind %v, %d): got %d/%d, want %+v (present %v)",
				e.key, e.key.Kind(), e.w.Start, e.count, e.sum, ref, ok)
		}
	}
	if n := op.OpenWindows(); n != 0 {
		t.Fatalf("%d windows still open after the final watermark", n)
	}
}

func TestRestoreRejectsDuplicatePane(t *testing.T) {
	encode := func(keys ...tuple.Key) []byte {
		enc := checkpoint.NewEncoder()
		enc.Uint64(0)
		enc.Len(len(keys))
		for _, k := range keys {
			enc.Key(k)
			enc.Int64(0)
			enc.Int64(1) // count
			enc.Int64(1) // sum
		}
		return enc.Bytes()
	}
	var out []emission
	op := snapCountOp(64, 0, 0, &out).(checkpoint.Snapshotter)
	nan := tuple.FloatKey(math.NaN())
	for _, dup := range []tuple.Key{tuple.IntKey(3), tuple.StrKey("s"), nan, {}} {
		if err := op.Restore(checkpoint.NewDecoder(encode(tuple.IntKey(1), dup, dup))); err == nil {
			t.Fatalf("Restore accepted a duplicate (%v kind %v, 0) pane", dup, dup.Kind())
		}
	}
	// Keys equal in payload but not in kind or bits are distinct panes.
	distinct := encode(tuple.Key{}, tuple.IntKey(0), tuple.FloatKey(0), tuple.FloatKey(math.Copysign(0, -1)),
		tuple.BoolKey(false), nan, tuple.FloatKey(math.Float64frombits(0x7ff8000000000abc)))
	if err := op.Restore(checkpoint.NewDecoder(distinct)); err != nil {
		t.Fatalf("Restore rejected distinct panes: %v", err)
	}
	if n := op.(*windowOp[countAcc]).OpenWindows(); n != 7 {
		t.Fatalf("%d panes restored, want 7", n)
	}
}

// longestProbe fills one pane table with keys and returns the longest
// distance any of them sits from its home slot.
func longestProbe(keys []tuple.Key) int {
	p := state.NewMapWith[tuple.Key, countAcc](keyHash)
	for _, k := range keys {
		p.GetOrCreate(k)
	}
	return p.MaxProbe()
}

// Keys sharing a long prefix and differing only in their last bytes —
// sensor ids, two-letter suffixes, consecutive ints — must spread over
// the table, not pile into one probe run.
func TestPaneTableSpreadsCommonPrefixKeys(t *testing.T) {
	var sensors, pairs, ints []tuple.Key
	for i := 0; i < 100; i++ {
		sensors = append(sensors, tuple.StrKey(fmt.Sprintf("sensor-%02d", i)))
	}
	for a := 'a'; a <= 'z'; a++ {
		for b := 'a'; b <= 'z'; b++ {
			pairs = append(pairs, tuple.StrKey("device/"+string(a)+string(b)))
		}
	}
	for i := 0; i < 1000; i++ {
		ints = append(ints, tuple.IntKey(int64(i)))
	}
	for _, c := range []struct {
		name string
		keys []tuple.Key
	}{{"sensor-00..99", sensors}, {"two-letter suffixes", pairs}, {"ints 0..999", ints}} {
		if n := longestProbe(c.keys); n > 16 {
			t.Errorf("%s: a key sits %d slots from home, want at most 16", c.name, n)
		}
	}
}
