package state

import (
	"fmt"
	"math/rand"
	"testing"

	"briskstream/internal/tuple"
)

// BenchmarkStateMap upserts (GetOrCreate, then increment) every
// resident key once per iteration, in a fixed shuffled order: 10 000
// symbol keys (FD's per-entity state), 50 000 dense int64 keys (LR's
// vehicle ids) and 100 000 int64 keys drawn from the whole range (wide
// keyed state). It reports ns/upsert, and fails unless every key's
// count equals the number of passes made.
func BenchmarkStateMap(b *testing.B) {
	b.Run("sym-10k", func(b *testing.B) {
		names := make([]string, 10_000)
		for i := range names {
			names[i] = fmt.Sprintf("state-bench-%d", i)
		}
		benchUpserts(b, NewMapWith[tuple.Sym, int64](func(s tuple.Sym) uint64 { return uint64(s) }),
			tuple.InternSyms(names...))
	})
	b.Run("int64-dense-50k", func(b *testing.B) {
		keys := make([]int64, 50_000)
		for i := range keys {
			keys[i] = int64(i)
		}
		benchUpserts(b, NewMap[int64, int64](), keys)
	})
	b.Run("int64-wide-100k", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		seen := map[int64]bool{}
		keys := make([]int64, 0, 100_000)
		for len(keys) < cap(keys) {
			if k := r.Int63() - r.Int63(); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		benchUpserts(b, NewMap[int64, int64](), keys)
	})
}

func benchUpserts[K comparable](b *testing.B, m *Map[K, int64], keys []K) {
	rand.New(rand.NewSource(2)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		m.GetOrCreate(k)
	}
	passes := 0
	b.ResetTimer()
	for b.Loop() {
		for _, k := range keys {
			v, _ := m.GetOrCreate(k)
			*v++
		}
		passes++
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(passes*len(keys)), "ns/upsert")
	if m.Len() != len(keys) {
		b.Fatalf("%d keys resident, want %d", m.Len(), len(keys))
	}
	for _, k := range keys {
		if v := m.Get(k); v == nil || *v != int64(passes) {
			b.Fatalf("key %v miscounted, want %d", k, passes)
		}
	}
}
