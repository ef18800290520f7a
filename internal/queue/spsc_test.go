package queue

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The Ring's contract: FIFO order, back-pressure, close-then-drain and
// released slots, for one producer and one consumer.

func TestRingFIFOOrder(t *testing.T) {
	q := NewRing[int](4)
	for i := 0; i < 4; i++ {
		if err := q.Put(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		v, err := q.Get()
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("Get = %d, want %d", v, i)
		}
	}
}

func TestRingCapacityPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {-3, 1}, {1, 1}, {2, 2}, {3, 4}, {64, 64}, {65, 128},
	} {
		if got := NewRing[int](tc.in).Cap(); got != tc.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestRingTryPutTryGet(t *testing.T) {
	q := NewRing[string](1)
	ok, err := q.TryPut("a")
	if !ok || err != nil {
		t.Fatalf("TryPut = %v, %v", ok, err)
	}
	ok, err = q.TryPut("b")
	if ok || err != nil {
		t.Fatalf("TryPut on full = %v, %v; want false, nil", ok, err)
	}
	v, ok, err := q.TryGet()
	if !ok || err != nil || v != "a" {
		t.Fatalf("TryGet = %q, %v, %v", v, ok, err)
	}
	_, ok, err = q.TryGet()
	if ok || err != nil {
		t.Fatalf("TryGet on empty = %v, %v; want false, nil", ok, err)
	}
}

func TestRingBackPressureBlocksProducer(t *testing.T) {
	q := NewRing[int](1)
	if err := q.Put(1); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		q.Put(2) // must block until the consumer drains
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Put on full ring did not block")
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := q.Get(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("producer never unblocked")
	}
}

func TestRingCloseDrainsThenErrClosed(t *testing.T) {
	q := NewRing[int](4)
	q.Put(1)
	q.Put(2)
	q.Close()
	if err := q.Put(3); err != ErrClosed {
		t.Errorf("Put after close = %v, want ErrClosed", err)
	}
	if v, err := q.Get(); err != nil || v != 1 {
		t.Errorf("drain 1: %v %v", v, err)
	}
	if v, err := q.Get(); err != nil || v != 2 {
		t.Errorf("drain 2: %v %v", v, err)
	}
	if _, err := q.Get(); err != ErrClosed {
		t.Errorf("Get after drain = %v, want ErrClosed", err)
	}
	if _, _, err := q.TryGet(); err != ErrClosed {
		t.Errorf("TryGet after drain = %v, want ErrClosed", err)
	}
	q.Close() // idempotent
}

func TestRingCloseUnblocksWaiters(t *testing.T) {
	q := NewRing[int](1)
	q.Put(1)
	putErr := make(chan error, 1)
	go func() { putErr <- q.Put(2) }()

	empty := NewRing[int](1)
	getErr := make(chan error, 1)
	go func() { _, err := empty.Get(); getErr <- err }()

	time.Sleep(10 * time.Millisecond)
	q.Close()
	empty.Close()
	if err := <-putErr; err != ErrClosed {
		t.Errorf("blocked Put after Close = %v, want ErrClosed", err)
	}
	if err := <-getErr; err != ErrClosed {
		t.Errorf("blocked Get after Close = %v, want ErrClosed", err)
	}
}

// TestRingBlockingCallsYieldOnOneP pins that Put and Get give up the
// processor while they wait: on one P, a producer blocked on a full
// capacity-1 ring and a consumer blocked on an empty one must hand
// every element over promptly. A busy wait would progress only when
// the runtime preempts it, about 10 ms per handoff.
func TestRingBlockingCallsYieldOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 10_000
	q := NewRing[int](1)
	go func() {
		for i := 0; i < n; i++ {
			if err := q.Put(i); err != nil {
				t.Errorf("Put %d: %v", i, err)
				return
			}
		}
		q.Close()
	}()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			v, err := q.Get()
			if err != nil || v != i {
				done <- fmt.Errorf("Get = %d, %v; want %d", v, err, i)
				return
			}
		}
		if _, err := q.Get(); err != ErrClosed {
			done <- fmt.Errorf("Get after drain = %v, want ErrClosed", err)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%d handoffs on one P did not finish in 30 s", n)
	}
}

func TestRingReferencesReleased(t *testing.T) {
	q := NewRing[*int](2)
	x := new(int)
	q.Put(x)
	q.Get()
	if q.buf[0] != nil {
		t.Error("ring slot retains pointer after Get")
	}
}

func TestRingSPSCNoLossNoDup(t *testing.T) {
	const n = 200_000
	q := NewRing[int](8)
	go func() {
		for i := 0; i < n; i++ {
			if err := q.Put(i); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
		}
		q.Close()
	}()
	for i := 0; ; i++ {
		v, err := q.Get()
		if err == ErrClosed {
			if i != n {
				t.Fatalf("received %d elements, want %d", i, n)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("element %d = %d; SPSC order violated", i, v)
		}
	}
	puts, gets := q.Stats()
	if puts != n || gets != n {
		t.Fatalf("stats puts=%d gets=%d, want %d", puts, gets, n)
	}
}

// --- Inbox fan-in ---

func TestInboxFansInAllProducers(t *testing.T) {
	const producers = 4
	const perProducer = 50_000
	ib := NewInbox[int](8)
	rings := make([]*Ring[int], producers)
	for p := range rings {
		rings[p] = ib.Bind()
	}
	var wg sync.WaitGroup
	for p, r := range rings {
		wg.Add(1)
		go func(p int, r *Ring[int]) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := r.Put(p*perProducer + i); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
			r.Close()
		}(p, r)
	}

	seen := make([]bool, producers*perProducer)
	last := make([]int, producers)
	for i := range last {
		last[i] = -1
	}
	count := 0
	for {
		v, err := ib.Get()
		if err == ErrClosed {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if seen[v] {
			t.Fatalf("duplicate element %d", v)
		}
		seen[v] = true
		count++
		// Per-producer FIFO order must be preserved through the fan-in.
		p, i := v/perProducer, v%perProducer
		if i <= last[p] {
			t.Fatalf("producer %d out of order: %d after %d", p, i, last[p])
		}
		last[p] = i
	}
	wg.Wait()
	if count != producers*perProducer {
		t.Fatalf("received %d elements, want %d", count, producers*perProducer)
	}
	puts, gets := ib.Stats()
	if puts != uint64(count) || gets != puts {
		t.Fatalf("stats puts=%d gets=%d", puts, gets)
	}
}

func TestInboxTryGetAndLen(t *testing.T) {
	ib := NewInbox[int](4)
	a, b := ib.Bind(), ib.Bind()
	if _, ok, err := ib.TryGet(); ok || err != nil {
		t.Fatalf("TryGet on empty open inbox = %v, %v", ok, err)
	}
	a.Put(1)
	b.Put(2)
	if ib.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ib.Len())
	}
	got := map[int]bool{}
	for i := 0; i < 2; i++ {
		v, ok, err := ib.TryGet()
		if !ok || err != nil {
			t.Fatalf("TryGet = %v, %v", ok, err)
		}
		got[v] = true
	}
	if !got[1] || !got[2] {
		t.Fatalf("fan-in missed elements: %v", got)
	}
	a.Close()
	if _, ok, err := ib.TryGet(); ok || err != nil {
		t.Fatalf("TryGet with one open ring = %v, %v; want false, nil", ok, err)
	}
	b.Close()
	if _, ok, err := ib.TryGet(); ok || err != ErrClosed {
		t.Fatalf("TryGet after all closed = %v, %v; want ErrClosed", ok, err)
	}
	if _, err := ib.Get(); err != ErrClosed {
		t.Fatalf("Get after all closed = %v, want ErrClosed", err)
	}
}

// TestInboxReady: Ready is what a worker reads before it claims a task,
// so it must say "TryGet has something" exactly when TryGet would
// return an element or ErrClosed.
func TestInboxReady(t *testing.T) {
	ib := NewInbox[int](4)
	a, b := ib.Bind(), ib.Bind()
	if ib.Ready() {
		t.Fatal("Ready on an empty open inbox")
	}
	b.TryPut(7)
	if !ib.Ready() {
		t.Fatal("not Ready with an element queued")
	}
	if v, ok, _ := ib.TryGet(); !ok || v != 7 {
		t.Fatalf("TryGet = %d, %v", v, ok)
	}
	a.Close()
	if ib.Ready() {
		t.Fatal("Ready with one ring still open and nothing queued")
	}
	b.Close()
	if !ib.Ready() {
		t.Fatal("not Ready once every ring is closed (TryGet reports ErrClosed)")
	}
}

func TestInboxNoRingsIsClosed(t *testing.T) {
	ib := NewInbox[int](4)
	if _, err := ib.Get(); err != ErrClosed {
		t.Fatalf("Get on ringless inbox = %v, want ErrClosed", err)
	}
}

func TestInboxCloseUnblocksConsumer(t *testing.T) {
	ib := NewInbox[int](4)
	ib.Bind()
	got := make(chan error, 1)
	go func() { _, err := ib.Get(); got <- err }()
	time.Sleep(10 * time.Millisecond)
	ib.Close()
	select {
	case err := <-got:
		if err != ErrClosed {
			t.Fatalf("Get after Close = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("consumer never unblocked by Close")
	}
}

func TestInboxRoundRobinFairness(t *testing.T) {
	// With every ring non-empty, consecutive Gets must rotate across
	// rings instead of draining one ring while the others starve.
	const producers = 3
	ib := NewInbox[int](8)
	for p := 0; p < producers; p++ {
		r := ib.Bind()
		for i := 0; i < 4; i++ {
			r.Put(p)
		}
	}
	for round := 0; round < 4; round++ {
		seen := map[int]bool{}
		for k := 0; k < producers; k++ {
			v, err := ib.Get()
			if err != nil {
				t.Fatal(err)
			}
			seen[v] = true
		}
		if len(seen) != producers {
			t.Fatalf("round %d drew from %d of %d producers: %v", round, len(seen), producers, seen)
		}
	}
}
