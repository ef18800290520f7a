package queue

// bench_test.go measures the queues on the engine's traffic shape: N
// producers feeding one consumer, each through a private SPSC ring of
// the consumer's Inbox, plus the uncontended single-edge loop. Like the
// engine, they call only TryPut and TryGet; the harness yields and
// retries where an engine worker would step another task:
//
//	go test -bench 'PutGet' -benchtime 2s ./internal/queue/

import (
	"runtime"
	"sync"
	"testing"
)

// benchMPSC drives n producers through TryPut on their rings and one
// consumer through the inbox's TryGet until every element is through.
// Each producer pushes b.N/n+1 elements.
func benchMPSC(b *testing.B, ib *Inbox[int], rings []*Ring[int]) {
	b.Helper()
	producers := len(rings)
	per := b.N/producers + 1
	total := per * producers
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, r := range rings {
		wg.Add(1)
		go func(r *Ring[int]) {
			defer wg.Done()
			for i := 0; i < per; {
				ok, err := r.TryPut(i)
				if err != nil {
					b.Error(err)
					return
				}
				if !ok {
					runtime.Gosched()
					continue
				}
				i++
			}
		}(r)
	}
	go func() { wg.Wait(); ib.Close() }()
	for got := 0; got < total; {
		_, ok, err := ib.TryGet()
		if err != nil {
			b.Fatalf("after %d of %d: %v", got, total, err)
		}
		if !ok {
			runtime.Gosched()
			continue
		}
		got++
	}
}

func benchInbox(b *testing.B, producers int) {
	ib := NewInbox[int](64)
	rings := make([]*Ring[int], producers)
	for i := range rings {
		rings[i] = ib.Bind()
	}
	benchMPSC(b, ib, rings)
}

func BenchmarkInboxPutGetP1(b *testing.B) { benchInbox(b, 1) }
func BenchmarkInboxPutGetP4(b *testing.B) { benchInbox(b, 4) }
func BenchmarkInboxPutGetP8(b *testing.B) { benchInbox(b, 8) }

// BenchmarkRingPutGet measures the uncontended single-edge hot path:
// one TryPut and one TryGet per iteration on the same goroutine, so the
// ring is never full when put to nor empty when read.
func BenchmarkRingPutGet(b *testing.B) {
	q := NewRing[int](64)
	for i := 0; i < b.N; i++ {
		if ok, _ := q.TryPut(i); !ok {
			b.Fatal("TryPut on a non-full ring failed")
		}
		if _, ok, _ := q.TryGet(); !ok {
			b.Fatal("TryGet on a non-empty ring failed")
		}
	}
}
