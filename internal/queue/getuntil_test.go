package queue

import (
	"testing"
	"time"
)

// The deadline contract of Inbox.GetUntil: a deadline ends the wait
// only once it has passed, a Put or Close wakes a parked consumer
// whatever its deadline, and a zero deadline means no deadline.

type getResult struct {
	v   int
	ok  bool
	err error
	at  time.Time
}

// getUntilAsync runs one GetUntil on its own goroutine.
func getUntilAsync(ib *Inbox[int], deadline time.Time) <-chan getResult {
	res := make(chan getResult, 1)
	go func() {
		v, ok, err := ib.GetUntil(deadline)
		res <- getResult{v, ok, err, time.Now()}
	}()
	return res
}

// awaitParked waits until the inbox's consumer has spun past spinLimit
// and parked, so what follows tests the wake-up, not the spin.
func awaitParked(t *testing.T, ib *Inbox[int]) {
	t.Helper()
	for end := time.Now().Add(10 * time.Second); !ib.cons.parked.Load(); {
		if time.Now().After(end) {
			t.Fatal("consumer never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestInboxGetUntil(t *testing.T) {
	t.Run("expires without data, not early", func(t *testing.T) {
		ib := NewInbox[int](4)
		ib.Bind()
		deadline := time.Now().Add(30 * time.Millisecond)
		v, ok, err := ib.GetUntil(deadline)
		if ok || err != nil || v != 0 {
			t.Fatalf("GetUntil = (%d, %v, %v), want (0, false, nil)", v, ok, err)
		}
		if now := time.Now(); now.Before(deadline) {
			t.Fatalf("returned %v before its deadline", deadline.Sub(now))
		}
	})

	t.Run("put wakes a parked consumer before its deadline", func(t *testing.T) {
		ib := NewInbox[int](4)
		r := ib.Bind()
		deadline := time.Now().Add(time.Minute)
		res := getUntilAsync(ib, deadline)
		awaitParked(t, ib)
		if err := r.Put(7); err != nil {
			t.Fatal(err)
		}
		got := <-res
		if !got.ok || got.err != nil || got.v != 7 {
			t.Fatalf("GetUntil = (%d, %v, %v), want (7, true, nil)", got.v, got.ok, got.err)
		}
		if !got.at.Before(deadline) {
			t.Fatal("woke only at the deadline, not on the Put")
		}
	})

	t.Run("zero deadline blocks until put or close", func(t *testing.T) {
		ib := NewInbox[int](4)
		r := ib.Bind()
		res := getUntilAsync(ib, time.Time{})
		awaitParked(t, ib)
		select {
		case got := <-res:
			t.Fatalf("zero deadline returned (%d, %v, %v) with no input", got.v, got.ok, got.err)
		case <-time.After(20 * time.Millisecond):
		}
		if err := r.Put(3); err != nil {
			t.Fatal(err)
		}
		if got := <-res; !got.ok || got.err != nil || got.v != 3 {
			t.Fatalf("GetUntil = (%d, %v, %v), want (3, true, nil)", got.v, got.ok, got.err)
		}
		res = getUntilAsync(ib, time.Time{})
		awaitParked(t, ib)
		r.Close()
		if got := <-res; got.ok || got.err != ErrClosed {
			t.Fatalf("GetUntil after Close = (%d, %v, %v), want ErrClosed", got.v, got.ok, got.err)
		}
	})

	t.Run("close wakes a consumer parked with a deadline", func(t *testing.T) {
		ib := NewInbox[int](4)
		ib.Bind()
		ib.Bind()
		deadline := time.Now().Add(time.Minute)
		res := getUntilAsync(ib, deadline)
		awaitParked(t, ib)
		ib.Close()
		got := <-res
		if got.ok || got.err != ErrClosed {
			t.Fatalf("GetUntil after Close = (%d, %v, %v), want ErrClosed", got.v, got.ok, got.err)
		}
		if !got.at.Before(deadline) {
			t.Fatal("woke only at the deadline, not on the Close")
		}
	})
}
