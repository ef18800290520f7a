package queue

// bench_test.go measures the queues on the engine's traffic shape: N
// producers feeding one consumer, each through a private SPSC ring of
// the consumer's Inbox, plus the uncontended single-edge loop:
//
//	go test -bench 'PutGet' -benchtime 2s ./internal/queue/

import (
	"sync"
	"testing"
)

// benchMPSC drives n producers through put-constructors and one
// consumer through get until every element is through. Each producer
// pushes items/n elements.
func benchMPSC(b *testing.B, producers int, mkPut func(p int) func(int) error, get func() (int, error), closeAll func()) {
	b.Helper()
	per := b.N/producers + 1
	total := per * producers
	b.ResetTimer()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(put func(int) error) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := put(i); err != nil {
					b.Error(err)
					return
				}
			}
		}(mkPut(p))
	}
	go func() { wg.Wait(); closeAll() }()
	for got := 0; got < total; got++ {
		if _, err := get(); err != nil {
			b.Fatalf("after %d of %d: %v", got, total, err)
		}
	}
}

func benchInbox(b *testing.B, producers int) {
	ib := NewInbox[int](64)
	rings := make([]*Ring[int], producers)
	for i := range rings {
		rings[i] = ib.Bind()
	}
	benchMPSC(b, producers,
		func(p int) func(int) error { return rings[p].Put },
		ib.Get,
		ib.Close,
	)
}

func BenchmarkInboxPutGetP1(b *testing.B) { benchInbox(b, 1) }
func BenchmarkInboxPutGetP4(b *testing.B) { benchInbox(b, 4) }
func BenchmarkInboxPutGetP8(b *testing.B) { benchInbox(b, 8) }

// BenchmarkRingPutGet measures the uncontended single-edge hot path
// (one Put + one Get per iteration, same goroutine, never full/empty
// long enough to park).
func BenchmarkRingPutGet(b *testing.B) {
	q := NewRing[int](64)
	for i := 0; i < b.N; i++ {
		q.Put(i)
		q.Get()
	}
}
