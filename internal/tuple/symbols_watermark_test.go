package tuple

import (
	"fmt"
	"testing"
)

// symWatermarkRuns numbers the runs of TestSymWatermarkWarnsOnce. The
// symbol table is process-global and never forgets a name, so every run
// (go test -count=N) interns names of its own.
var symWatermarkRuns int

func TestSymWatermarkWarnsOnce(t *testing.T) {
	defer SetSymWatermark(0, nil)
	symWatermarkRuns++
	p := fmt.Sprintf("wmark%d-", symWatermarkRuns)

	base, baseBytes := SymCount(), SymBytes()
	if baseBytes <= 0 && base > 0 {
		t.Fatalf("SymBytes = %d with %d symbols interned", baseBytes, base)
	}

	var fires int
	var gotCount, gotBytes int
	SetSymWatermark(base+2, func(count, bytes int) {
		fires++
		gotCount, gotBytes = count, bytes
	})

	names := make([]string, 4)
	var want int
	for i := range names {
		names[i] = fmt.Sprintf("%sone-%d", p, i)
		want += len(names[i])
	}
	for _, n := range names {
		InternSym(n)
	}
	if got := SymBytes() - baseBytes; got != want {
		t.Errorf("SymBytes grew by %d, want %d", got, want)
	}
	if fires != 1 {
		t.Fatalf("watermark fired %d times, want exactly 1 (warn-once)", fires)
	}
	if gotCount != base+3 {
		t.Errorf("callback count = %d, want %d (first crossing)", gotCount, base+3)
	}
	if gotBytes <= baseBytes {
		t.Errorf("callback bytes = %d, want > %d", gotBytes, baseBytes)
	}

	// Re-arming resets the fired state; bulk interning fires it too.
	fires = 0
	SetSymWatermark(SymCount(), func(count, bytes int) { fires++ })
	InternSyms(p+"bulk-a", p+"bulk-b")
	InternSym(p + "seq-c")
	if fires != 1 {
		t.Errorf("re-armed watermark fired %d times, want exactly 1", fires)
	}

	// Disarmed: further growth is silent.
	fires = 0
	SetSymWatermark(0, nil)
	InternSym(p + "silent")
	if fires != 0 {
		t.Errorf("disarmed watermark fired %d times", fires)
	}

	// Re-interning existing names registers nothing and must not fire,
	// even with the table already past the armed limit.
	SetSymWatermark(SymCount()-1, func(count, bytes int) { fires++ })
	InternSym(p + "silent")
	InternSyms(p + "bulk-a")
	if fires != 0 {
		t.Errorf("re-interning existing names fired the watermark %d times", fires)
	}
}
