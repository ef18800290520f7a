package tuple

import (
	"testing"
	"time"
)

func TestPoolGetResetsTuple(t *testing.T) {
	p := NewPool()
	tp := p.Get()
	tp.AppendStr("payload")
	tp.AppendInt(7)
	tp.Stream = Intern("pool-test-stream")
	tp.Ts = time.Now()
	tp.Event, tp.TraceID, tp.TraceOrigin = 3, 4, 5
	tp.Release()

	got := p.Get()
	if got.Len() != 0 {
		t.Errorf("recycled tuple has %d values", got.Len())
	}
	if got.Stream != DefaultStreamID {
		t.Errorf("recycled tuple stream = %v", got.Stream)
	}
	if !got.Ts.IsZero() || got.Event != 0 || got.TraceID != 0 || got.TraceOrigin != 0 {
		t.Errorf("recycled tuple keeps metadata: ts=%v event=%d trace=%d/%d", got.Ts, got.Event, got.TraceID, got.TraceOrigin)
	}
}

// TestPoolReusesArena: the pool is a plain free list, so the row
// released last is the row the next Get returns, arena capacity intact.
func TestPoolReusesArena(t *testing.T) {
	p := NewPool()
	tp := p.Get()
	tp.AppendStr("a payload long enough to need arena capacity")
	tp.Release()
	got := p.Get()
	if got != tp {
		t.Fatal("Get after Release did not return the released row")
	}
	if cap(got.arena) == 0 {
		t.Error("recycled arena lost its capacity")
	}
}

// TestDoubleReleaseRecyclesOnce: a second Release of the same row is a
// no-op, so two later Gets never hand out one row twice.
func TestDoubleReleaseRecyclesOnce(t *testing.T) {
	p := NewPool()
	tp := p.Get()
	tp.Release()
	tp.Release()
	if a, b := p.Get(), p.Get(); a == b {
		t.Fatal("a row released twice came back from two Gets")
	}
}

// TestNonPooledTupleIgnoresRelease: a row that never came from a Pool
// is left alone by Release — it keeps its payload and joins no free
// list.
func TestNonPooledTupleIgnoresRelease(t *testing.T) {
	tp := New(int64(5))
	tp.Release()
	tp.Release()
	if tp.Int(0) != 5 {
		t.Error("non-pooled tuple mutated by Release")
	}
}
