// Package state provides the keyed operator state store backing
// BriskStream's stateful operators and the window subsystem. The paper's
// evaluation workloads are dominated by keyed aggregation — WC's word
// counts, SD's per-device statistics, LR's per-segment minute statistics
// — and a per-row probe of that state is the largest cost left in an
// operator body. Map is the tree's one keyed table: the window
// operators' per-fire-time pane tables, FD's per-entity history and
// LR's per-segment, per-vehicle and per-account state all live in one.
//
// Map is open-addressed: an []int32 index over dense entries, hashed by
// a multiply-shift of a key payload chosen when the Map is built, so a
// probe pays no memhash and no per-probe type switch. Its access path
// matches the engine's zero-allocation discipline: looking up an
// existing key allocates nothing, and deleting a key recycles its entry
// (including any internal capacity the value accumulated — slices,
// nested maps) for the next key instead of handing it to the garbage
// collector.
package state

import (
	"hash/maphash"
	"math/bits"
	"slices"
)

// golden is 2^64 divided by the golden ratio. A key's payload times
// golden, indexed by the product's top bits, spreads dense ids and keys
// that differ only in a few bits over the whole table.
const golden = 0x9E3779B97F4A7C15

// chunk0Bits sizes value chunk c at 1<<(chunk0Bits+c) values: each
// chunk doubles the capacity, and a full Map allocates a new chunk
// instead of moving its values.
const chunk0Bits = 3

// Map is a keyed state store with pooled, type-stable entries. Keys
// compare with ==, as Go map keys do.
//
// Entries are dense, in insertion order: their keys in one slice that
// probes scan, their values in chunks that never move, so an entry's
// *V stays valid until its key is deleted or the Map is cleared. A slot
// index (slot → entry+1, 0 empty) finds them by linear probing, at most
// 3/4 full, in a power-of-two table. Delete shifts the rest of the
// key's probe run back over its slot, so no tombstones lengthen later
// probes, and puts the entry on a free list. GetOrCreate hands a
// deleted or cleared entry out again with its previous contents intact,
// so callers reset it through their own initializer — which lets values
// retain internal capacity across lives (the whole point of pooling).
//
// Map is not safe for concurrent use: like all operator state it
// belongs to one task goroutine.
type Map[K comparable, V any] struct {
	hash   func(K) uint64
	idx    []int32  // slot -> entry+1, 0 empty
	shift  uint     // 64 - log2(len(idx))
	keys   []K      // entry -> key, for every entry handed out since the last Clear
	vals   [][]V    // entry -> value, in chunks
	free   []int32  // deleted entries, reused last first
	dead   []uint64 // one bit per entry: set while it is on free
	sorted []int32  // RangeSorted's scratch, reused across calls
}

// NewMap creates an empty store. An int64 key hashes by its own value; any other key type goes through hash/maphash. Key types with a
// cheaper payload (a symbol's dense id, a typed key's bits) use
// NewMapWith.
func NewMap[K comparable, V any]() *Map[K, V] {
	return NewMapWith[K, V](defaultHash[K]())
}

// NewMapWith creates an empty store whose index spreads keys by
// hash(k) times the golden ratio. hash must return equal values for
// equal keys; it need not mix its bits, since the multiply does.
func NewMapWith[K comparable, V any](hash func(K) uint64) *Map[K, V] {
	return &Map[K, V]{hash: hash, idx: make([]int32, 8), shift: 64 - 3}
}

// defaultHash picks NewMap's payload once, from K's type.
func defaultHash[K comparable]() func(K) uint64 {
	var f any
	switch any(*new(K)).(type) {
	case int64:
		f = func(k int64) uint64 { return uint64(k) }
	default:
		seed := maphash.MakeSeed()
		return func(k K) uint64 { return maphash.Comparable(seed, k) }
	}
	return f.(func(K) uint64)
}

// val returns entry e's value.
func (s *Map[K, V]) val(e int32) *V {
	u := uint(e) + 1<<chunk0Bits
	c := bits.Len(u) - chunk0Bits - 1
	return &s.vals[c][u-1<<(c+chunk0Bits)]
}

// home is k's first probe slot.
func (s *Map[K, V]) home(k K) int { return int(s.hash(k) * golden >> s.shift) }

// find returns k's entry, or -1 and the empty slot it would take.
func (s *Map[K, V]) find(k K) (e int32, slot int) {
	mask := len(s.idx) - 1
	for i := s.home(k); ; i = (i + 1) & mask {
		x := s.idx[i]
		if x == 0 {
			return -1, i
		}
		if s.keys[x-1] == k {
			return x - 1, i
		}
	}
}

// Get returns the entry for k, or nil if absent. Lookup of an existing
// key performs no allocation.
func (s *Map[K, V]) Get(k K) *V {
	if e, _ := s.find(k); e >= 0 {
		return s.val(e)
	}
	return nil
}

// GetOrCreate returns the entry for k, creating it when absent: a
// deleted entry if there is one, else the next entry in insertion
// order (one a Clear left behind, or a fresh zero one). The boolean
// reports whether the entry was just created — a created entry holds
// whatever its previous life left behind, and the caller must
// initialize it.
func (s *Map[K, V]) GetOrCreate(k K) (*V, bool) {
	e, slot := s.find(k)
	if e >= 0 {
		return s.val(e), false
	}
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
		s.dead[e>>6] &^= 1 << (e & 63)
		s.keys[e] = k
	} else {
		e = int32(len(s.keys))
		s.keys = append(s.keys, k)
		if len(s.keys) > (1<<len(s.vals)-1)<<chunk0Bits {
			s.vals = append(s.vals, make([]V, 1<<(len(s.vals)+chunk0Bits)))
		}
	}
	s.idx[slot] = e + 1
	if 4*s.Len() > 3*len(s.idx) {
		s.grow()
	}
	return s.val(e), true
}

// grow doubles the index and re-inserts every live entry.
func (s *Map[K, V]) grow() {
	s.idx = make([]int32, 2*len(s.idx))
	s.shift--
	mask := len(s.idx) - 1
	for e, k := range s.keys {
		if s.isDead(int32(e)) {
			continue
		}
		i := s.home(k)
		for s.idx[i] != 0 {
			i = (i + 1) & mask
		}
		s.idx[i] = int32(e + 1)
	}
}

func (s *Map[K, V]) isDead(e int32) bool {
	w := int(e >> 6)
	return w < len(s.dead) && s.dead[w]&(1<<(e&63)) != 0
}

// Delete removes k and recycles its entry. The caller must not touch
// the entry pointer after deleting the key.
func (s *Map[K, V]) Delete(k K) {
	e, slot := s.find(k)
	if e < 0 {
		return
	}
	// Backward-shift deletion: walk the probe run after the hole and
	// move back every entry whose home slot does not lie cyclically in
	// (hole, its slot], so every remaining key stays reachable from its
	// home without crossing an empty slot.
	mask := len(s.idx) - 1
	hole := slot
	for i := (slot + 1) & mask; s.idx[i] != 0; i = (i + 1) & mask {
		if home := s.home(s.keys[s.idx[i]-1]); (i-home)&mask >= (i-hole)&mask {
			s.idx[hole] = s.idx[i]
			hole = i
		}
	}
	s.idx[hole] = 0
	var zero K
	s.keys[e] = zero // release a key's referents (string text) to the collector
	s.free = append(s.free, e)
	for int(e>>6) >= len(s.dead) {
		s.dead = append(s.dead, 0)
	}
	s.dead[e>>6] |= 1 << (e & 63)
}

// Len returns the number of live keys.
func (s *Map[K, V]) Len() int { return len(s.keys) - len(s.free) }

// Range calls f for every live (key, entry) pair until f returns false,
// in insertion order as long as no key was deleted since the last Clear
// (a recycled entry keeps its place in the order). The window operators
// emit in first-touch order through it. f must not create keys; it may
// delete the key it is visiting.
func (s *Map[K, V]) Range(f func(k K, e *V) bool) {
	anyDead := len(s.free) > 0 // an entry is dead only while it is on free
	keys := s.keys
	for _, ch := range s.vals {
		if len(keys) == 0 {
			return
		}
		ch = ch[:min(len(ch), len(keys))]
		for i := range ch {
			if anyDead && s.isDead(int32(len(s.keys)-len(keys)+i)) {
				continue
			}
			if !f(keys[i], &ch[i]) {
				return
			}
		}
		keys = keys[len(ch):]
	}
}

// RangeSorted calls f for every live (key, entry) pair in the order
// defined by compare, until f returns false. Snapshot encodings use it:
// a checkpoint of keyed state must be byte-stable, and insertion order
// is not. The sorted scratch is retained by the Map, so steady-state
// calls allocate nothing once it has grown; f must not create or
// delete keys mid-iteration.
func (s *Map[K, V]) RangeSorted(compare func(a, b K) int, f func(k K, e *V) bool) {
	s.sorted = s.sorted[:0]
	for e := range s.keys {
		if !s.isDead(int32(e)) {
			s.sorted = append(s.sorted, int32(e))
		}
	}
	slices.SortFunc(s.sorted, func(a, b int32) int { return compare(s.keys[a], s.keys[b]) })
	for _, e := range s.sorted {
		if !f(s.keys[e], s.val(e)) {
			return
		}
	}
}

// Clear removes every key, recycling all entries: the next keys take
// them in insertion order, with their previous contents. The index,
// the entries and the values' internal capacity are retained.
func (s *Map[K, V]) Clear() {
	clear(s.keys) // release keys' referents (string text) to the collector
	s.keys = s.keys[:0]
	s.free = s.free[:0]
	clear(s.dead)
	clear(s.idx)
}

// MaxProbe reports the longest distance any key sits from its home
// slot: a measure of how well the Map's hash spreads its keys. A
// NewMapWith caller chooses its keys' payload, and this is how it tests
// that choice (the window package checks its tuple.Key payload so).
func (s *Map[K, V]) MaxProbe() int {
	mask := len(s.idx) - 1
	longest := 0
	for i, x := range s.idx {
		if x != 0 {
			longest = max(longest, (i-s.home(s.keys[x-1]))&mask)
		}
	}
	return longest
}
