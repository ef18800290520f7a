package state

import (
	"cmp"
	"slices"
	"testing"
)

// life is a fuzzed entry's contents: the key it was last written under
// and a write counter unique across the whole run, so an entry that
// comes back from the free list is recognisable by what it held.
type life struct {
	key   int64
	write int
}

// FuzzStateMap runs random sequences of GetOrCreate, Get, Delete,
// Clear, Range and RangeSorted against a Go-map reference, with bulk
// inserts that regrow the index several times. It checks that entry
// pointers stay stable until Delete, that a created entry is either a
// fresh zero one or a recycled one holding exactly what it held when it
// was deleted or cleared (a deleted one first, while any is waiting),
// and that Range keeps insertion order while nothing was deleted.
func FuzzStateMap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 0, 3, 6, 4, 4, 0, 5, 0})
	f.Add([]byte{6, 1, 6, 2, 6, 3, 2, 7, 0, 200, 4, 0, 3, 0, 6, 9, 4, 0})
	f.Add([]byte{6, 0, 6, 5, 2, 3, 2, 4, 0, 3, 0, 4, 5, 0, 3, 0, 0, 1, 4, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := NewMap[int64, life]()
		ref := map[int64]*life{}  // live keys and the entry each must keep
		held := map[*life]life{}  // every entry ever handed out: its contents
		freed := map[*life]bool{} // entries deleted since the last Clear, not yet reused
		var order []int64         // insertion order since the last Clear
		deleted := false          // a Delete since the last Clear
		writes := 0
		key := func(arg byte) int64 { return int64(arg%64) - 16 } // negatives too

		upsert := func(k int64) {
			e, created := m.GetOrCreate(k)
			if want, ok := ref[k]; ok {
				if created || e != want {
					t.Fatalf("GetOrCreate(%d) of a live key: created %v, moved %v", k, created, e != want)
				}
			} else {
				if !created {
					t.Fatalf("GetOrCreate(%d) of an absent key did not create", k)
				}
				prev, seen := held[e]
				switch {
				case len(freed) > 0 && !freed[e]:
					t.Fatalf("GetOrCreate(%d) passed over %d deleted entries", k, len(freed))
				case seen && *e != prev:
					t.Fatalf("recycled entry holds %+v, its last life left %+v", *e, prev)
				case !seen && *e != (life{}):
					t.Fatalf("fresh entry holds %+v", *e)
				}
				delete(freed, e)
				ref[k] = e
				order = append(order, k)
			}
			writes++
			*e = life{k, writes}
			held[e] = *e
		}

		for i := 0; i+1 < len(ops); i += 2 {
			arg := ops[i+1]
			switch ops[i] % 7 {
			case 0:
				upsert(key(arg))
			case 1:
				k := key(arg)
				if e, want := m.Get(k), ref[k]; e != want {
					t.Fatalf("Get(%d) = %p, want %p", k, e, want)
				}
			case 2:
				k := key(arg)
				m.Delete(k)
				if e, ok := ref[k]; ok {
					delete(ref, k)
					freed[e] = true
					deleted = true
				}
			case 3:
				m.Clear()
				clear(ref)
				clear(freed)
				order, deleted = order[:0], false
			case 4:
				var got []int64
				m.Range(func(k int64, e *life) bool {
					if e != ref[k] {
						t.Fatalf("Range visits %d at %p, want %p", k, e, ref[k])
					}
					got = append(got, k)
					return true
				})
				if len(got) != len(ref) {
					t.Fatalf("Range visited %d keys, %d live", len(got), len(ref))
				}
				if !deleted && !slices.Equal(got, order) {
					t.Fatalf("Range order %v, insertion order %v", got, order)
				}
			case 5:
				var got []int64
				m.RangeSorted(cmp.Compare[int64], func(k int64, e *life) bool {
					if e != ref[k] {
						t.Fatalf("RangeSorted visits %d at %p, want %p", k, e, ref[k])
					}
					got = append(got, k)
					return true
				})
				if len(got) != len(ref) || !slices.IsSorted(got) {
					t.Fatalf("RangeSorted visited %v of %d live keys", got, len(ref))
				}
			case 6:
				// A run of 50 wide keys: the index regrows under it.
				base := int64(arg) * 1000
				for k := base; k < base+50; k++ {
					upsert(k)
				}
			}
			if m.Len() != len(ref) {
				t.Fatalf("Len = %d, reference holds %d", m.Len(), len(ref))
			}
		}
		for k, want := range ref {
			if e := m.Get(k); e != want || e.key != k {
				t.Fatalf("key %d lost its entry", k)
			}
		}
	})
}
