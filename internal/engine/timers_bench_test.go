package engine_test

// BenchmarkTimers measures the timer service through its public API
// alone: each op advances the watermark past the earliest pending event
// timer, which fires, and registers its replacement at the far end, so
// the pending count stays fixed. Run with:
//
//	go test -run '^$' -bench '^BenchmarkTimers$' -benchtime 1s ./internal/engine/

import (
	"fmt"
	"testing"

	"briskstream/internal/engine"
)

func BenchmarkTimers(b *testing.B) {
	for _, pending := range []int{1, 1024} {
		b.Run(fmt.Sprintf("pending-%d", pending), func(b *testing.B) { benchTimers(b, pending) })
	}
}

// benchTimers keeps `pending` event timers registered at timestamps
// spaced stride apart. It fails unless every registered timer fires
// exactly once, in timestamp order.
func benchTimers(b *testing.B, pending int) {
	const stride = 1000
	tm := engine.NewTimers()
	for i := 1; i <= pending; i++ {
		tm.RegisterEvent(int64(i) * stride)
	}
	next, fired := int64(stride), 0 // the timestamp due to fire next
	var bad error
	fire := func(at int64) error {
		if at != next && bad == nil {
			bad = fmt.Errorf("fired %d, want %d", at, next)
		}
		next += stride
		fired++
		return nil
	}
	wm := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wm += stride
		tm.AdvanceWatermark(wm, fire)
		tm.RegisterEvent(wm + int64(pending)*stride)
	}
	b.StopTimer()
	tm.AdvanceWatermark(engine.WatermarkMax, fire)
	if bad != nil {
		b.Fatal(bad)
	}
	if want := pending + b.N; fired != want {
		b.Fatalf("%d timers fired, want %d (each registered one once)", fired, want)
	}
}
