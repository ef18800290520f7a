package state

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

type acc struct {
	count int64
	seen  map[int64]bool
}

func TestMapBasics(t *testing.T) {
	s := NewMap[string, acc]()
	if s.Get("a") != nil || s.Len() != 0 {
		t.Fatal("empty map not empty")
	}
	e, created := s.GetOrCreate("a")
	if !created || e == nil {
		t.Fatal("first GetOrCreate must create")
	}
	e.count = 7
	if got, created := s.GetOrCreate("a"); created || got != e {
		t.Fatal("second GetOrCreate must return the same entry")
	}
	if got := s.Get("a"); got != e || got.count != 7 {
		t.Fatal("Get lost the entry")
	}
	s.Delete("a")
	if s.Get("a") != nil || s.Len() != 0 {
		t.Fatal("Delete left the key")
	}
	s.Delete("a") // idempotent
}

func TestEntriesRecycleWithCapacity(t *testing.T) {
	s := NewMap[string, acc]()
	e, _ := s.GetOrCreate("a")
	e.seen = map[int64]bool{1: true, 2: true}
	s.Delete("a")
	// The recycled entry must come back with its previous contents (the
	// caller's initializer clears but keeps capacity).
	e2, created := s.GetOrCreate("b")
	if !created {
		t.Fatal("expected creation")
	}
	if e2 != e {
		t.Fatal("entry was not recycled from the pool")
	}
	if e2.seen == nil || len(e2.seen) != 2 {
		t.Fatal("recycled entry lost its internal state (capacity reuse impossible)")
	}
	clear(e2.seen) // what a real initializer does: reset, keep buckets
	if len(e2.seen) != 0 {
		t.Fatal("clear failed")
	}
}

func TestClearRecyclesAll(t *testing.T) {
	s := NewMap[int, acc]()
	entries := map[*acc]bool{}
	for i := 0; i < 100; i++ {
		e, _ := s.GetOrCreate(i)
		entries[e] = true
	}
	s.Clear()
	if s.Len() != 0 {
		t.Fatal("Clear left keys")
	}
	// Every subsequent create must be served from the pool.
	for i := 0; i < 100; i++ {
		e, created := s.GetOrCreate(1000 + i)
		if !created || !entries[e] {
			t.Fatalf("entry %d not recycled", i)
		}
	}
}

func TestRangeVisitsAll(t *testing.T) {
	s := NewMap[int, acc]()
	for i := 0; i < 10; i++ {
		e, _ := s.GetOrCreate(i)
		e.count = int64(i)
	}
	sum := int64(0)
	n := 0
	s.Range(func(k int, e *acc) bool {
		sum += e.count
		n++
		return true
	})
	if n != 10 || sum != 45 {
		t.Fatalf("Range visited %d entries, sum %d", n, sum)
	}
	n = 0
	s.Range(func(k int, e *acc) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early-stop Range visited %d", n)
	}
}

// TestSteadyStateAccessAllocFree: the per-tuple access pattern of a
// keyed aggregation — existing-key lookup and update, by Get or by
// GetOrCreate — allocates nothing, and a churning key (delete +
// re-create) is served entirely from the free list.
func TestSteadyStateAccessAllocFree(t *testing.T) {
	s := NewMap[string, acc]()
	keys := []string{"alpha", "beta", "gamma", "delta"}
	for _, k := range keys {
		e, _ := s.GetOrCreate(k)
		e.count = 0
	}
	i := 0
	avg := testing.AllocsPerRun(5000, func() {
		e := s.Get(keys[i%len(keys)])
		e.count++
		i++
	})
	if avg > 0 {
		t.Errorf("existing-key Get allocates %.3f/op, want 0", avg)
	}
	ints := NewMap[int64, acc]()
	for k := int64(0); k < 1000; k++ {
		ints.GetOrCreate(k)
	}
	avg = testing.AllocsPerRun(5000, func() {
		e, _ := ints.GetOrCreate(int64(i % 1000))
		e.count++
		i++
	})
	if avg > 0 {
		t.Errorf("GetOrCreate of a resident key allocates %.3f/op, want 0", avg)
	}
	// Churn: windows create and delete keys constantly; a re-created
	// key takes the entry its Delete freed, and its string key is
	// hashed and stored without allocating.
	avg = testing.AllocsPerRun(5000, func() {
		e, created := s.GetOrCreate("churn")
		if created {
			e.count = 0
		}
		e.count++
		s.Delete("churn")
	})
	if avg > 0 {
		t.Errorf("churning string key allocates %.3f/op, want 0", avg)
	}
	// The same on int64 keys, where a new key takes the entry another
	// key's Delete freed.
	avg = testing.AllocsPerRun(5000, func() {
		ints.Delete(int64(i % 1000))
		e, created := ints.GetOrCreate(int64(1000 + i%1000))
		if !created {
			t.Fatal("churned key was resident")
		}
		e.count = 0
		ints.Delete(int64(1000 + i%1000))
		ints.GetOrCreate(int64(i % 1000))
		i++
	})
	if avg > 0 {
		t.Errorf("GetOrCreate reusing a deleted entry allocates %.3f/op, want 0", avg)
	}
}

func TestRangeSortedDeterministicOrder(t *testing.T) {
	// Two maps with the same keys inserted in different orders must
	// iterate identically — that is what makes snapshot encodings of
	// keyed state byte-stable.
	build := func(keys []string) *Map[string, int] {
		m := NewMap[string, int]()
		for _, k := range keys {
			e, _ := m.GetOrCreate(k)
			*e = len(k)
		}
		return m
	}
	a := build([]string{"pear", "fig", "apple", "kiwi"})
	b := build([]string{"kiwi", "apple", "pear", "fig"})
	compare := func(x, y string) int { return strings.Compare(x, y) }
	collect := func(m *Map[string, int]) []string {
		var out []string
		m.RangeSorted(compare, func(k string, e *int) bool {
			out = append(out, fmt.Sprintf("%s=%d", k, *e))
			return true
		})
		return out
	}
	ka, kb := collect(a), collect(b)
	want := []string{"apple=5", "fig=3", "kiwi=4", "pear=4"}
	if !slices.Equal(ka, want) || !slices.Equal(kb, want) {
		t.Fatalf("RangeSorted order: %v / %v, want %v", ka, kb, want)
	}
	// Early exit stops the sweep.
	n := 0
	a.RangeSorted(compare, func(string, *int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early exit visited %d keys", n)
	}
	// The sorted scratch is retained: steady-state calls allocate only
	// what the caller's closure does.
	avg := testing.AllocsPerRun(100, func() {
		a.RangeSorted(compare, func(string, *int) bool { return true })
	})
	if avg > 0 {
		t.Errorf("RangeSorted allocates %.3f/op after warmup, want 0", avg)
	}
}
