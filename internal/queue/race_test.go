package queue

// race_test.go stresses the close/drain paths of the SPSC ring and the
// inbox under the race detector: concurrent Put/TryPut/Get
// racing a Close must never lose an enqueued element, deliver one
// twice, or report anything other than ErrClosed after shutdown. The
// suite is the regression net for the lock-free ring's close/drain
// contract; run it with `go test -race ./internal/queue/` (the `race`
// Makefile target).
//
// Conservation is checked as received + leftover == enqueued: an
// asynchronous Close may race the very last lock-free Put, in which
// case the element is still in the ring after the consumer exits (the
// engine only hits async Close on abort, where it re-drains nothing by
// design; clean shutdown closes each ring from its own producer, which
// is fully ordered).

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// errTryFull distinguishes "queue momentarily full" from real errors in
// the shared race harness.
var errTryFull = &fullError{}

type fullError struct{}

func (*fullError) Error() string { return "queue full" }

// putGetCloseRace drives `producers` producer goroutines (even-indexed
// ones blocking via put, odd ones spinning on tryPut) and one consumer,
// closes the queue mid-flight from a separate goroutine, and checks
// conservation and the ErrClosed contract. put/tryPut receive the
// producer index so SPSC rings can be pinned one-per-goroutine.
func putGetCloseRace(t *testing.T, producers int, put, tryPut func(p, v int) error, get func() (int, error), tryGet func() (int, bool, error), doClose func()) {
	t.Helper()
	const attempts = 5_000

	var enqueued atomic.Int64 // successful puts
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				var err error
				if p%2 == 0 {
					err = put(p, i)
				} else {
					err = tryPut(p, i)
					if err == errTryFull {
						runtime.Gosched()
						continue
					}
				}
				if err == nil {
					enqueued.Add(1)
					continue
				}
				if err != ErrClosed {
					t.Errorf("producer %d: %v", p, err)
				}
				return
			}
		}(p)
	}

	closed := make(chan struct{})
	go func() {
		for enqueued.Load() < attempts { // let some traffic through first
			runtime.Gosched()
		}
		doClose()
		close(closed)
	}()

	var received int64
	for {
		_, err := get()
		if err == ErrClosed {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		received++
	}
	<-closed
	wg.Wait()
	// Producers are done: any straggler a racing Put published after the
	// consumer exited is still queued and must now be visible.
	var leftover int64
	for {
		_, ok, err := tryGet()
		if !ok {
			if err != ErrClosed {
				t.Fatalf("TryGet after close and drain = %v, want ErrClosed", err)
			}
			break
		}
		leftover++
	}
	if received+leftover != enqueued.Load() {
		t.Fatalf("received %d + leftover %d != enqueued %d", received, leftover, enqueued.Load())
	}
}

func TestRaceInboxPutGetClose(t *testing.T) {
	// SPSC contract: exactly one producer goroutine per ring. Fan four
	// producers into an Inbox so the shape matches the engine.
	const producers = 4
	ib := NewInbox[int](8)
	rings := make([]*Ring[int], producers)
	for i := range rings {
		rings[i] = ib.Bind()
	}
	putGetCloseRace(t, producers,
		func(p, v int) error { return rings[p].Put(v) },
		func(p, v int) error {
			ok, err := rings[p].TryPut(v)
			if err != nil {
				return err
			}
			if !ok {
				return errTryFull
			}
			return nil
		},
		ib.Get,
		ib.TryGet,
		ib.Close,
	)
}

// TestRaceRingSingleEdge races one producer, one consumer and an
// asynchronous Close on a bare ring (no inbox).
func TestRaceRingSingleEdge(t *testing.T) {
	q := NewRing[int](4)
	var enqueued atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			if i%3 == 0 {
				ok, err := q.TryPut(i)
				if err != nil {
					return
				}
				if !ok {
					continue
				}
			} else if q.Put(i) != nil {
				return
			}
			enqueued.Add(1)
		}
	}()
	go func() {
		for enqueued.Load() < 10_000 {
			runtime.Gosched()
		}
		q.Close()
	}()
	var received int64
	for {
		_, err := q.Get()
		if err == ErrClosed {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		received++
	}
	<-done
	var leftover int64
	for {
		if _, ok, _ := q.TryGet(); !ok {
			break
		}
		leftover++
	}
	if received+leftover != enqueued.Load() {
		t.Fatalf("received %d + leftover %d != enqueued %d", received, leftover, enqueued.Load())
	}
}

// TestRaceStatsDuringTraffic polls Stats and Len from a third goroutine
// while traffic flows — the metrics layer does exactly this live.
func TestRaceStatsDuringTraffic(t *testing.T) {
	ib := NewInbox[int](8)
	r := ib.Bind()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				puts, gets := ib.Stats()
				if gets > puts {
					t.Errorf("gets %d > puts %d", gets, puts)
					return
				}
				_ = ib.Len()
			}
		}
	}()
	for i := 0; i < 50_000; i++ {
		if err := r.Put(i); err != nil {
			t.Fatal(err)
		}
		if _, err := ib.Get(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	r.Close()
	if _, err := ib.Get(); err != ErrClosed {
		t.Fatalf("Get after close = %v", err)
	}
}
