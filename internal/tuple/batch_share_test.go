package tuple

// Shared batches: Share, Release and Shared keep the share count, the
// last of a batch's readers alone learns it was the last, a release past
// the count panics, and the readers of one shared batch each get a
// selection vector of their own from SelScratch.

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// intBatch returns a full batch of n one-int rows holding 0..n-1.
func intBatch(n int) *Batch {
	b := NewBatch(n)
	for !b.Full() {
		b.Append(New(int64(b.Len())))
	}
	return b
}

// TestBatchReleaseLastReader: a batch sent to one reader needs no
// Share and its one Release is the last; a batch shared by k readers is
// Shared until k-1 of them released it, and only the k-th Release is
// the last. Reset leaves the batch with one reader again.
func TestBatchReleaseLastReader(t *testing.T) {
	b := intBatch(4)
	if b.Shared() || !b.Release() {
		t.Fatal("an unshared batch is shared, or its one release is not the last")
	}
	b.Reset()
	const k = 5
	b.Share(k)
	for i := 1; i < k; i++ {
		if !b.Shared() {
			t.Fatalf("not shared with %d of %d readers left", k-i+1, k)
		}
		if b.Release() {
			t.Fatalf("release %d of %d was the last", i, k)
		}
	}
	if b.Shared() || !b.Release() {
		t.Fatal("the last reader's release is not the last")
	}
	b.Reset()
	if b.Shared() || !b.Release() {
		t.Fatal("a reset batch is not back to one reader")
	}
}

// TestBatchReleasePastCountPanics: one release more than the batch was
// shared with panics — here a reader that releases twice, so that the
// count runs out while another reader still holds the batch.
func TestBatchReleasePastCountPanics(t *testing.T) {
	b := intBatch(4)
	b.Share(2)
	b.Release()
	b.Release() // the same reader again: the other one's hold is gone
	defer func() {
		if recover() == nil {
			t.Error("a release past the share count did not panic")
		}
	}()
	b.Release()
}

// TestBatchSharedReleaseRace: the readers of one shared batch release
// it at once, round after round; exactly one of them is the last each
// time.
func TestBatchSharedReleaseRace(t *testing.T) {
	const k, rounds = 4, 2000
	b := intBatch(4)
	for round := 0; round < rounds; round++ {
		b.Share(k)
		var last atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if b.Release() {
					last.Add(1)
				}
			}()
		}
		wg.Wait()
		if n := last.Load(); n != 1 {
			t.Fatalf("round %d: %d of %d releases were the last, want 1", round, n, k)
		}
		b.Reset()
	}
}

// TestSelScratchSharedBatch: two readers of one shared batch fill
// SelScratch vectors at once, each its own (the race detector flags a
// vector they share), and select exactly their rows. The batch's one
// reader gets the batch's own vector back, call after call.
func TestSelScratchSharedBatch(t *testing.T) {
	const n = 64
	b := intBatch(n)
	b.Share(2)
	sels := make([][]int32, 2)
	var wg sync.WaitGroup
	for i := range sels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sel := b.SelScratch()
			for r := 0; r < b.Len(); r++ {
				if int(b.Int(0, r))%2 == i {
					sel = append(sel, int32(r))
				}
			}
			sels[i] = sel
			b.Release()
		}()
	}
	wg.Wait()
	for i, sel := range sels {
		if len(sel) != n/2 {
			t.Fatalf("reader %d selected %d rows, want %d", i, len(sel), n/2)
		}
		for _, r := range sel {
			if int(r)%2 != i {
				t.Fatalf("reader %d selected row %d, another reader's", i, r)
			}
		}
	}
	b.Reset()
	first := b.SelScratch()
	first = append(first, 1)
	if again := b.SelScratch(); cap(again) < n || &again[:1][0] != &first[0] {
		t.Error("the one reader of a batch did not get the batch's own vector back")
	}
}

// TestBatchHeaderFourCacheLines: the share count sits in padding, so a
// Batch header stays 256 bytes on 64-bit platforms — its size class then
// lays batches on whole cache lines, and no two batches, read and
// written by different tasks, share one.
func TestBatchHeaderFourCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("64-bit layout only")
	}
	if n := unsafe.Sizeof(Batch{}); n != 256 {
		t.Errorf("Batch header is %d bytes, want 256", n)
	}
}
