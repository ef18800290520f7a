package queue

import (
	"runtime"
	"sync"
	"testing"
)

func TestFreeRingFIFO(t *testing.T) {
	q := NewFreeRing[int](4)
	if q.Cap() != 4 {
		t.Fatalf("cap = %d, want 4", q.Cap())
	}
	for i := 0; i < 4; i++ {
		if !q.TryPut(i) {
			t.Fatalf("TryPut(%d) rejected below capacity", i)
		}
	}
	if q.TryPut(99) {
		t.Fatal("TryPut succeeded on a full ring")
	}
	for i := 0; i < 4; i++ {
		v, ok := q.TryGet()
		if !ok || v != i {
			t.Fatalf("TryGet = %d,%v, want %d,true", v, ok, i)
		}
	}
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet succeeded on an empty ring")
	}
}

func TestFreeRingCapacityRounding(t *testing.T) {
	if got := NewFreeRing[int](3).Cap(); got != 4 {
		t.Fatalf("cap(3) = %d, want 4", got)
	}
	if got := NewFreeRing[int](0).Cap(); got != 1 {
		t.Fatalf("cap(0) = %d, want 1", got)
	}
}

// TestFreeRingConcurrentSPSC hammers the ring from one putter and one
// getter goroutine under the race detector: every value put must come
// out exactly once, in order.
func TestFreeRingConcurrentSPSC(t *testing.T) {
	const n = 100000
	q := NewFreeRing[int](64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; {
			if q.TryPut(i) {
				i++
			} else {
				runtime.Gosched() // nonblocking ring: yield so a 1-CPU box makes progress
			}
		}
	}()
	next := 0
	for next < n {
		v, ok := q.TryGet()
		if !ok {
			runtime.Gosched()
			continue
		}
		if v != next {
			t.Errorf("got %d, want %d", v, next)
			break
		}
		next++
	}
	wg.Wait()
}

func BenchmarkFreeRingPutGet(b *testing.B) {
	q := NewFreeRing[*int](256)
	v := new(int)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !q.TryPut(v) {
			b.Fatal("full")
		}
		if _, ok := q.TryGet(); !ok {
			b.Fatal("empty")
		}
	}
}
