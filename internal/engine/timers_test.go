package engine

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestWheelFiresInTimestampOrder(t *testing.T) {
	tm := NewTimers()
	for _, at := range []int64{50, 10, 30, 20, 40, 10} {
		tm.RegisterEvent(at)
	}
	var fired []int64
	if err := tm.AdvanceWatermark(35, func(at int64) error {
		fired = append(fired, at)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 10, 20, 30}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	// The rest fires on the next advance; duplicates fired twice above.
	fired = fired[:0]
	tm.AdvanceWatermark(1000, func(at int64) error {
		fired = append(fired, at)
		return nil
	})
	if len(fired) != 2 || fired[0] != 40 || fired[1] != 50 {
		t.Fatalf("second advance fired %v, want [40 50]", fired)
	}
}

func TestWheelDistantTimerDoesNotFireEarly(t *testing.T) {
	// A timestamp far past a near one must survive until its own time.
	tm := NewTimers()
	tm.AdvanceWatermark(0, func(int64) error { return nil })
	near := int64(5)
	far := near + 256
	tm.RegisterEvent(far)
	tm.RegisterEvent(near)
	var fired []int64
	tm.AdvanceWatermark(near, func(at int64) error {
		fired = append(fired, at)
		return nil
	})
	if len(fired) != 1 || fired[0] != near {
		t.Fatalf("fired %v, want [%d]", fired, near)
	}
	tm.AdvanceWatermark(far, func(at int64) error {
		fired = append(fired, at)
		return nil
	})
	if len(fired) != 2 || fired[1] != far {
		t.Fatalf("fired %v, want [... %d]", fired, far)
	}
}

func TestWheelHugeJumpIsSafe(t *testing.T) {
	tm := NewTimers()
	tm.AdvanceWatermark(-1_000_000_000_000, func(int64) error { return nil })
	tm.RegisterEvent(7)
	var fired []int64
	// A jump spanning nearly the whole int64 range must complete fast
	// (no per-tick iteration) and fire everything due.
	tm.AdvanceWatermark(WatermarkMax, func(at int64) error {
		fired = append(fired, at)
		return nil
	})
	if len(fired) != 1 || fired[0] != 7 {
		t.Fatalf("fired %v, want [7]", fired)
	}
}

func TestAdvanceWatermarkErrorKeepsRestPending(t *testing.T) {
	tm := NewTimers()
	for _, at := range []int64{10, 20, 30} {
		tm.RegisterEvent(at)
	}
	boom := errors.New("boom")
	var fired []int64
	if err := tm.AdvanceWatermark(25, func(at int64) error {
		fired = append(fired, at)
		return boom
	}); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// 10 failed; 20 (due) and 30 stay pending for the next advance.
	if err := tm.AdvanceWatermark(100, func(at int64) error {
		fired = append(fired, at)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fired) != "[10 20 30]" {
		t.Fatalf("fired %v, want [10 20 30]", fired)
	}
}

func TestWatermarkIsMonotonic(t *testing.T) {
	tm := NewTimers()
	tm.AdvanceWatermark(100, func(int64) error { return nil })
	if tm.Watermark() != 100 {
		t.Fatalf("wm = %d", tm.Watermark())
	}
	fired := 0
	tm.RegisterEvent(90)
	// A regressing advance is a no-op; the (already past-due) timer
	// fires on the next genuine advance.
	tm.AdvanceWatermark(50, func(int64) error { fired++; return nil })
	if tm.Watermark() != 100 || fired != 0 {
		t.Fatalf("regressed: wm=%d fired=%d", tm.Watermark(), fired)
	}
	tm.AdvanceWatermark(101, func(int64) error { fired++; return nil })
	if fired != 1 {
		t.Fatalf("past-due timer fired %d times", fired)
	}
}

func TestProcWheelNextDeadlineRecomputes(t *testing.T) {
	tm := NewTimers()
	base := time.Now()
	t1, t2 := base.Add(5*time.Millisecond), base.Add(80*time.Millisecond)
	tm.RegisterProcAt(t2)
	tm.RegisterProcAt(t1)
	if tm.nextProc() == 0 {
		t.Fatal("no pending proc timer")
	}
	if got := tm.nextProc(); got > t1.UnixNano() {
		t.Fatalf("nextProc %d after earliest %d", got, t1.UnixNano())
	}
	var fired []int64
	for {
		at, ok := tm.proc.popDue(t1.UnixNano())
		if !ok {
			break
		}
		fired = append(fired, at)
	}
	if len(fired) != 1 || fired[0] != t1.UnixNano() {
		t.Fatalf("fired %v", fired)
	}
	// After the earliest fired, the deadline must move to t2 exactly —
	// a stale lower bound here would busy-wake the task loop.
	if got := tm.nextProc(); got != t2.UnixNano() {
		t.Fatalf("nextProc %d, want %d", got, t2.UnixNano())
	}
}

func TestTimersResetDropsPending(t *testing.T) {
	tm := NewTimers()
	tm.RegisterEvent(10)
	tm.RegisterProcAt(time.Now())
	tm.AdvanceWatermark(5, func(int64) error { return nil })
	tm.reset()
	if tm.Watermark() != int64(WatermarkMin) || tm.nextProc() != 0 {
		t.Fatal("reset did not rewind")
	}
	fired := 0
	tm.AdvanceWatermark(100, func(int64) error { fired++; return nil })
	if fired != 0 {
		t.Fatalf("pre-reset timer survived: %d", fired)
	}
}

func TestRegisterEventSteadyStateAllocFree(t *testing.T) {
	tm := NewTimers()
	at := int64(0)
	// Warm the heap's backing array.
	for i := 0; i < 1024; i++ {
		at++
		tm.RegisterEvent(at)
	}
	tm.AdvanceWatermark(at, func(int64) error { return nil })
	avg := testing.AllocsPerRun(2000, func() {
		at++
		tm.RegisterEvent(at)
		tm.AdvanceWatermark(at, func(int64) error { return nil })
	})
	if avg > 0.01 {
		t.Errorf("steady-state register+advance allocates %.3f/op, want 0", avg)
	}
}
