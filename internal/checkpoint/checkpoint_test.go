package checkpoint

import (
	"bytes"
	"path/filepath"
	"testing"

	"briskstream/internal/state"
	"briskstream/internal/tuple"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	enc := NewEncoder()
	enc.Int64(-42)
	enc.Uint64(1 << 63)
	enc.Float64(3.25)
	enc.Bool(true)
	enc.Bool(false)
	enc.String("hello")
	enc.String("")
	enc.Len(7)
	enc.Bytes64([]byte{1, 2, 3})
	enc.Key(tuple.Key{})
	enc.Key(tuple.IntKey(9))
	enc.Key(tuple.FloatKey(2.5))
	enc.Key(tuple.StrKey("word"))
	enc.Key(tuple.BoolKey(true))

	dec := NewDecoder(enc.Bytes())
	if got := dec.Int64(); got != -42 {
		t.Fatalf("Int64 = %d", got)
	}
	if got := dec.Uint64(); got != 1<<63 {
		t.Fatalf("Uint64 = %d", got)
	}
	if got := dec.Float64(); got != 3.25 {
		t.Fatalf("Float64 = %v", got)
	}
	if !dec.Bool() || dec.Bool() {
		t.Fatal("Bool round-trip")
	}
	if got := dec.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if got := dec.String(); got != "" {
		t.Fatalf("empty String = %q", got)
	}
	if got := dec.Len(); got != 7 {
		t.Fatalf("Len = %d", got)
	}
	if got := dec.Bytes64(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes64 = %v", got)
	}
	if got := dec.Key(); got != (tuple.Key{}) {
		t.Fatalf("empty Key = %v", got)
	}
	if got := dec.Key(); got != tuple.IntKey(9) {
		t.Fatalf("int Key = %v", got)
	}
	if got := dec.Key(); got != tuple.FloatKey(2.5) {
		t.Fatalf("float Key = %v", got)
	}
	if got := dec.Key(); got != tuple.StrKey("word") {
		t.Fatalf("string Key = %v", got)
	}
	if got := dec.Key(); got != tuple.BoolKey(true) {
		t.Fatalf("bool Key = %v", got)
	}
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if dec.Remaining() != 0 {
		t.Fatalf("%d bytes left over", dec.Remaining())
	}
}

func TestDecoderStickyError(t *testing.T) {
	dec := NewDecoder([]byte{0x01})
	_ = dec.Int64() // truncated
	if dec.Err() == nil {
		t.Fatal("want error on truncated payload")
	}
	// Every further read is a safe zero, not a panic.
	if dec.String() != "" || dec.Int64() != 0 || dec.Key() != (tuple.Key{}) || dec.Len() != 0 {
		t.Fatal("reads after error must return zero values")
	}
}

func TestDecoderBoundsCorruptLength(t *testing.T) {
	enc := NewEncoder()
	enc.Len(1 << 40) // length far beyond the payload
	dec := NewDecoder(enc.Bytes())
	if dec.Len() != 0 || dec.Err() == nil {
		t.Fatal("oversized length must fail, not allocate")
	}
}

// TestSaveOrderedByteStable is the round-trip determinism contract:
// the same logical state.Map contents always encode to the same bytes,
// regardless of insertion order.
func TestSaveOrderedByteStable(t *testing.T) {
	encode := func(keys []string) []byte {
		m := state.NewMap[string, int64]()
		for i, k := range keys {
			e, _ := m.GetOrCreate(k)
			*e = int64(i * i)
		}
		// Values must not depend on insertion index for the comparison:
		// re-assign deterministically by key length.
		m.Range(func(k string, e *int64) bool { *e = int64(len(k)); return true })
		enc := NewEncoder()
		SaveOrdered(enc, m,
			func(e *Encoder, k string) { e.String(k) },
			func(e *Encoder, v *int64) { e.Int64(*v) })
		return append([]byte(nil), enc.Bytes()...)
	}
	a := encode([]string{"zebra", "apple", "mid", "aa"})
	b := encode([]string{"aa", "mid", "apple", "zebra"})
	if !bytes.Equal(a, b) {
		t.Fatalf("insertion order leaked into the encoding:\n%x\n%x", a, b)
	}

	m2 := state.NewMap[string, int64]()
	if err := LoadOrdered(NewDecoder(a), m2,
		func(d *Decoder) string { return d.String() },
		func(d *Decoder, v *int64) { *v = d.Int64() }); err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 4 || *m2.Get("zebra") != 5 || *m2.Get("aa") != 2 {
		t.Fatalf("LoadOrdered rebuilt wrong contents (len %d)", m2.Len())
	}
}

func TestCoordinatorCompletesOnLastAck(t *testing.T) {
	co := NewCoordinator(nil)
	co.Begin(1, []string{"a#0", "b#0", "c#0"})
	if err := co.Ack(1, "a#0", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := co.Ack(1, "b#0", []byte{2}); err != nil {
		t.Fatal(err)
	}
	if co.Completed() != 0 {
		t.Fatal("completed before all acks")
	}
	if cp, _ := co.Latest(); cp != nil {
		t.Fatal("latest visible before completion")
	}
	if err := co.Ack(1, "c#0", []byte{3}); err != nil {
		t.Fatal(err)
	}
	if co.Completed() != 1 || co.LatestID() != 1 {
		t.Fatalf("completed=%d latest=%d", co.Completed(), co.LatestID())
	}
	cp, err := co.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.ID != 1 || len(cp.Tasks) != 3 || cp.Tasks["b#0"][0] != 2 {
		t.Fatalf("latest = %+v", cp)
	}
}

func TestCoordinatorDropsStaleAndDuplicate(t *testing.T) {
	co := NewCoordinator(nil)
	co.Begin(1, []string{"a#0"})
	co.Begin(2, []string{"a#0"})
	// Duplicate ack and ack for an unknown id are dropped silently.
	if err := co.Ack(2, "a#0", nil); err != nil {
		t.Fatal(err)
	}
	if err := co.Ack(2, "a#0", nil); err != nil {
		t.Fatal(err)
	}
	if err := co.Ack(9, "a#0", nil); err != nil {
		t.Fatal(err)
	}
	// Checkpoint 1 was overtaken by 2's completion and discarded.
	if err := co.Ack(1, "a#0", nil); err != nil {
		t.Fatal(err)
	}
	if co.Completed() != 1 || co.LatestID() != 2 {
		t.Fatalf("completed=%d latest=%d", co.Completed(), co.LatestID())
	}
	// A Begin below the completed id is refused.
	co.Begin(2, []string{"a#0"})
	if err := co.Ack(2, "a#0", nil); err != nil {
		t.Fatal(err)
	}
	if co.Completed() != 1 {
		t.Fatal("re-begun completed checkpoint must not complete again")
	}
}

// TestCoordinatorDiscard: a checkpoint a task gave up on leaves the
// in-flight set at once (not only when a later one completes), and the
// acks still trickling in for it are dropped.
func TestCoordinatorDiscard(t *testing.T) {
	co := NewCoordinator(nil)
	co.Begin(1, []string{"a#0", "b#0"})
	if err := co.Ack(1, "a#0", nil); err != nil {
		t.Fatal(err)
	}
	if co.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", co.Pending())
	}
	co.Discard(1)
	co.Discard(7) // unknown id: no-op
	if co.Pending() != 0 {
		t.Fatalf("pending = %d after Discard, want 0", co.Pending())
	}
	if err := co.Ack(1, "b#0", nil); err != nil {
		t.Fatal(err)
	}
	if co.Completed() != 0 || co.LatestID() != 0 {
		t.Fatalf("discarded checkpoint completed: completed=%d latest=%d", co.Completed(), co.LatestID())
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(filepath.Join(dir, "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	if cp, err := st.Latest(); err != nil || cp != nil {
		t.Fatalf("empty store: cp=%v err=%v", cp, err)
	}
	cp1 := &Checkpoint{ID: 1, Tasks: map[string][]byte{"spout#0": {9, 8}, "sink#0": {}}}
	cp7 := &Checkpoint{ID: 7, Tasks: map[string][]byte{"spout#0": {1}, "sink#0": {2}}}
	if err := st.Save(cp1); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(cp7); err != nil {
		t.Fatal(err)
	}
	got, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 7 || !bytes.Equal(got.Tasks["sink#0"], []byte{2}) {
		t.Fatalf("latest = %+v", got)
	}
	got, err = st.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 1 || !bytes.Equal(got.Tasks["spout#0"], []byte{9, 8}) || len(got.Tasks["sink#0"]) != 0 {
		t.Fatalf("load(1) = %+v", got)
	}
	if got, err := st.Load(99); err != nil || got != nil {
		t.Fatalf("load(unknown) = %v, %v", got, err)
	}
	// Reopening the directory sees the persisted checkpoints.
	st2, err := NewFileStore(filepath.Join(dir, "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	got, err = st2.Latest()
	if err != nil || got == nil || got.ID != 7 {
		t.Fatalf("reopened latest = %v, %v", got, err)
	}
}

// Engine snapshots may legally contain any key kind a tuple field can
// hold — including interned symbols, which encode by name and
// re-intern on decode so the restored key equals the replayed one.
func TestKeyEncodingMatchesTupleKinds(t *testing.T) {
	keys := []tuple.Key{
		{}, tuple.IntKey(-1), tuple.FloatKey(0.5), tuple.StrKey("k"),
		tuple.BoolKey(false), tuple.SymKey(tuple.InternSym("ckpt-sym")),
	}
	enc := NewEncoder()
	for _, k := range keys {
		enc.Key(k)
	}
	dec := NewDecoder(enc.Bytes())
	for i, want := range keys {
		if got := dec.Key(); got != want {
			t.Fatalf("key %d: got %v want %v", i, got, want)
		}
	}
	if dec.Err() != nil {
		t.Fatal(dec.Err())
	}
}

// failingStore rejects every Save.
type failingStore struct{ MemoryStore }

func (s *failingStore) Save(cp *Checkpoint) error {
	return ErrCorrupt
}

// A failed Save must not advance the completed counter or the restore
// floor — otherwise Latest() returns nil while LatestID() lies, and the
// floor refuses retried ids forever.
func TestCoordinatorSaveFailureKeepsFloorHonest(t *testing.T) {
	st := &failingStore{MemoryStore{cps: map[uint64]*Checkpoint{}}}
	co := NewCoordinator(st)
	co.Begin(1, []string{"a#0"})
	if err := co.Ack(1, "a#0", nil); err == nil {
		t.Fatal("completing ack must surface the store failure")
	}
	if co.Completed() != 0 || co.LatestID() != 0 {
		t.Fatalf("failed save counted as completed: completed=%d latest=%d", co.Completed(), co.LatestID())
	}
	// A later checkpoint with a fresh id is still accepted.
	co.Begin(2, []string{"a#0"})
	if _, ok := co.pending[2]; !ok {
		t.Fatal("coordinator wedged after failed save")
	}
}

// Completed checkpoints older than the last durable one are dead
// weight; both stores prune them on the coordinator's signal.
func TestStoresPruneSuperseded(t *testing.T) {
	mem := NewMemoryStore()
	co := NewCoordinator(mem)
	for id := uint64(1); id <= 3; id++ {
		co.Begin(id, []string{"a#0"})
		if err := co.Ack(id, "a#0", []byte{byte(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := mem.Load(1); got != nil {
		t.Fatal("memory store kept a superseded checkpoint")
	}
	if got, _ := mem.Latest(); got == nil || got.ID != 3 {
		t.Fatalf("latest after prune = %v", got)
	}

	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co2 := NewCoordinator(fs)
	for id := uint64(1); id <= 3; id++ {
		co2.Begin(id, []string{"a#0"})
		if err := co2.Ack(id, "a#0", []byte{byte(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := fs.Load(2); got != nil {
		t.Fatal("file store kept a superseded checkpoint")
	}
	if got, _ := fs.Latest(); got == nil || got.ID != 3 {
		t.Fatalf("file latest after prune = %v", got)
	}
}
