package apps

import (
	"math/rand"
	"testing"
)

// TestFDHashFoldsExactly: fdHash folds four bytes per step, and must
// give exactly the serial h = h*31 + c over every record, so scores (and
// checkpointed buckets) do not change. Records of every length 0–70,
// bytes 0–255.
func TestFDHashFoldsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 70)
	for trial := 0; trial < 5000; trial++ {
		n := trial % (len(buf) + 1)
		for i := range buf[:n] {
			buf[i] = byte(rng.Intn(256))
		}
		record := string(buf[:n])
		var want int64
		for i := 0; i < len(record); i++ {
			want = want*31 + int64(record[i])
		}
		if got := fdHash(record); got != want {
			t.Fatalf("fdHash(%q) = %d, serial form %d", record, got, want)
		}
	}
}
