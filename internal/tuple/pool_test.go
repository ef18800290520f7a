package tuple

import (
	"sync"
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
	tp.Release()

	got := p.Get()
	if got.Len() != 0 {
		t.Errorf("recycled tuple has %d values", got.Len())
	}
	if got.Stream != DefaultStreamID {
		t.Errorf("recycled tuple stream = %v", got.Stream)
	}
	if !got.Ts.IsZero() {
		t.Errorf("recycled tuple ts = %v", got.Ts)
	}
}

func TestPoolReusesArena(t *testing.T) {
	p := NewPool()
	tp := p.Get()
	tp.AppendStr("a payload long enough to need arena capacity")
	tp.Release()
	// sync.Pool keeps per-P caches; with no GC in between the same
	// tuple comes back with its capacity intact.
	got := p.Get()
	if got != tp {
		t.Skip("pool returned a different tuple (unlucky scheduling); nothing to assert")
	}
	if cap(got.arena) == 0 {
		t.Error("recycled arena lost its capacity")
	}
}

func TestRetainKeepsTupleAlive(t *testing.T) {
	p := NewPool()
	tp := p.Get()
	tp.AppendStr("keep")
	tp.Retain() // second reference

	tp.Release() // engine's reference ends
	if tp.Str(0) != "keep" {
		t.Error("retained tuple was recycled")
	}
	tp.Release() // holder's reference ends; now recycled
}

func TestNonPooledTupleIgnoresRetainRelease(t *testing.T) {
	tp := New(int64(5))
	tp.Retain()
	tp.Release()
	tp.Release() // extra releases must be harmless no-ops
	if tp.Int(0) != 5 {
		t.Error("non-pooled tuple mutated by Release")
	}
}

func TestCopyFromReusesArena(t *testing.T) {
	p := NewPool()
	src := OnStream("copy-test-stream", "a", int64(1))
	src.Ts = time.Unix(0, 42)
	dst := p.Get()
	dst.AppendStr("warm the destination arena")
	dst.Reset()
	before := cap(dst.arena)
	dst.CopyFrom(src)
	if dst.Str(0) != "a" || dst.Int(1) != 1 {
		t.Errorf("copy lost values: %v", dst)
	}
	if dst.Stream != src.Stream || !dst.Ts.Equal(src.Ts) {
		t.Error("copy lost metadata")
	}
	if cap(dst.arena) != before {
		t.Errorf("CopyFrom reallocated: cap %d -> %d", before, cap(dst.arena))
	}
	// The copy must be deep: refilling the destination leaves the
	// source untouched.
	dst.Reset()
	dst.AppendStr("mutated")
	if src.Str(0) != "a" {
		t.Error("CopyFrom aliased the source arena")
	}
}

// TestPoolConcurrentRecycle hammers one pool from producer and consumer
// goroutines with retains crossing goroutines; run with -race to check
// the reference-counting protocol.
func TestPoolConcurrentRecycle(t *testing.T) {
	p := NewPool()
	const n = 5000
	ch := make(chan *Tuple, 64)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // producer: borrow, fill, retain for the side consumer
		defer wg.Done()
		for i := 0; i < n; i++ {
			tp := p.Get()
			tp.AppendInt(int64(i))
			tp.Retain()
			ch <- tp
			tp.Release() // producer's own reference
		}
		close(ch)
	}()
	var sum int64
	go func() { // consumer: read then drop the retained reference
		defer wg.Done()
		for tp := range ch {
			sum += tp.Int(0)
			tp.Release()
		}
	}()
	wg.Wait()
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Errorf("sum = %d, want %d (values clobbered by premature recycle?)", sum, want)
	}
}
