package tuple

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
)

// Symbols: the process-global string interning table for low-cardinality
// hot field values (words, device ids, entity keys). A symbol field
// stores a 4-byte id in its tuple slot — no copy into the arena, key
// equality is an integer compare, and Str/Name return the interned
// text, which is stable for the life of the process (so, unlike arena
// strings, symbol names may be kept without cloning).
//
// Like stream interning, the table never evicts: symbols must come from
// a bounded set fixed by the workload (a vocabulary, a device fleet),
// never from unbounded per-tuple data — every first-seen name is
// retained forever. A new name costs an amortized O(1) insert under a
// lock; lookups of known names take no lock. High-cardinality strings
// belong in the arena (AppendStr), not here. A tokenizer interning
// every word it emits should go through a SymCache, which answers
// repeated words without touching the shared table.
//
// Symbol ids are dense, assigned in interning order, process-local and
// never reused; nothing durable may record an id. The serialization
// paths (tuple wire format, checkpoint key codec) encode a symbol as
// its name and re-intern on decode, which keeps encodings byte-stable
// and lets a recovered process rebuild identical keys.

// Sym is an interned symbol id.
type Sym uint32

// The table has two halves; registering a name copies neither.
//
// Names live in an append-only store of fixed-size chunks: a written
// name never moves, so a symNames view only ever grows, and Name is one
// atomic load plus two indexes.
//
// The index is open-addressed with linear probing. Each slot is one
// atomic word, the name's 32-bit hash (the probe start and a tag) above
// sym+1 (0 marks an empty slot), so readers probe it lock-free.
// Writers hold symsMu, insert in place, and publish a doubled index
// once it is half full: amortized O(1) per new name. A reader still
// probing a superseded index, or meeting a sym its names view does not
// yet hold, sees a miss, which InternSym resolves under the lock.
const (
	symChunkBits = 10
	symChunkMask = 1<<symChunkBits - 1
	symIndexMin  = 1024
)

type symChunk [1 << symChunkBits]string

// symNames is a view of the name store: the first n names, bytes of
// text in all.
type symNames struct {
	chunks []*symChunk
	n      int
	bytes  int
}

func (t *symNames) name(s Sym) string { return t.chunks[s>>symChunkBits][s&symChunkMask] }

type symIndex struct {
	slots []atomic.Uint64
	mask  uint32
}

var (
	symsMu sync.Mutex
	// symW is the writer's view, guarded by symsMu; it runs ahead of
	// the published symNamesPub while a registration is in flight.
	symW        symNames
	symNamesPub atomic.Pointer[symNames]
	symIdx      atomic.Pointer[symIndex]
	// symSeed keys symHash per process, so no fixed set of names can
	// be chosen to collide.
	symSeed = rand.Uint64()
)

func init() {
	symNamesPub.Store(&symNames{})
	symIdx.Store(newSymIndex(symIndexMin))
}

// symHash is a seeded multiply-fold hash (the wyhash mixer) that reads
// a name 8 bytes at a time: one multiply for a word of up to 8 bytes.
func symHash(name string) uint32 {
	const k0, k1 = 0xa0761d6478bd642f, 0xe7037ed1a0b428db
	h := symSeed ^ uint64(len(name))*k0
	s := name
	for len(s) > 8 {
		h = symMix(h^le64(s), k1)
		s = s[8:]
	}
	var v uint64
	switch {
	case len(s) >= 4:
		v = uint64(le32(s))<<32 | uint64(le32(s[len(s)-4:]))
	case len(s) > 0:
		v = uint64(s[0])<<16 | uint64(s[len(s)>>1])<<8 | uint64(s[len(s)-1])
	}
	h = symMix(h^v, k1^uint64(len(name)))
	return uint32(h ^ h>>32)
}

func symMix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// le64 and le32 read little-endian words; the compiler fuses the byte
// loads into one.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

func le32(s string) uint32 {
	_ = s[3]
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

func newSymIndex(size int) *symIndex {
	return &symIndex{slots: make([]atomic.Uint64, size), mask: uint32(size - 1)}
}

// find probes for name among the syms view t holds.
func (ix *symIndex) find(t *symNames, name string, h uint32) (Sym, bool) {
	for i := h & ix.mask; ; i = (i + 1) & ix.mask {
		v := ix.slots[i].Load()
		if v == 0 {
			return 0, false
		}
		if s := Sym(uint32(v) - 1); uint32(v>>32) == h && int(s) < t.n && t.name(s) == name {
			return s, true
		}
	}
}

func (ix *symIndex) insert(v uint64) {
	i := uint32(v>>32) & ix.mask
	for ix.slots[i].Load() != 0 {
		i = (i + 1) & ix.mask
	}
	ix.slots[i].Store(v)
}

// addLocked appends a name known to be absent to the writer's view and
// indexes it; the caller holds symsMu and publishes afterwards.
func addLocked(name string, h uint32) Sym {
	s := Sym(symW.n)
	if symW.n&symChunkMask == 0 {
		symW.chunks = append(symW.chunks, new(symChunk))
	}
	// The caller's string may be a view into a tuple or batch arena (the
	// tokenizer path interns substrings of Str results); the table
	// retains the name forever, so it must own the bytes.
	name = strings.Clone(name)
	symW.chunks[s>>symChunkBits][s&symChunkMask] = name
	symW.n++
	symW.bytes += len(name)
	ix := symIdx.Load()
	if 2*symW.n > len(ix.slots) {
		next := newSymIndex(2 * len(ix.slots))
		for i := range ix.slots {
			if v := ix.slots[i].Load(); v != 0 {
				next.insert(v)
			}
		}
		symIdx.Store(next)
		ix = next
	}
	ix.insert(uint64(h)<<32 | (uint64(s) + 1))
	return s
}

// publishLocked makes the writer's view visible to readers.
func publishLocked() {
	t := symW
	symNamesPub.Store(&t)
	checkSymWatermark(&t)
}

// InternSym returns the symbol for name, registering it on first use.
// Safe for concurrent use; lookups of known names are lock-free.
func InternSym(name string) Sym {
	h := symHash(name)
	if s, ok := symIdx.Load().find(symNamesPub.Load(), name, h); ok {
		return s
	}
	symsMu.Lock()
	defer symsMu.Unlock()
	if s, ok := symIdx.Load().find(&symW, name, h); ok {
		return s
	}
	s := addLocked(name, h)
	publishLocked()
	return s
}

// InternSyms registers a batch of names under one lock and one publish
// and returns their symbols — the way to pre-intern a vocabulary or an
// id population in set-up.
func InternSyms(names ...string) []Sym {
	out := make([]Sym, len(names))
	symsMu.Lock()
	defer symsMu.Unlock()
	n := symW.n
	for i, name := range names {
		h := symHash(name)
		s, ok := symIdx.Load().find(&symW, name, h)
		if !ok {
			s = addLocked(name, h)
		}
		out[i] = s
	}
	if symW.n > n {
		publishLocked()
	}
	return out
}

// SymCache is a direct-mapped front cache for InternSym, owned by one
// goroutine — typically an operator instance that tokenizes every row,
// which is per task. Each entry holds a name of up to symCacheInline
// bytes inline, packed into two words, beside its symbol: a hit is a
// few integer compares on one cache line and never reads the shared
// table. Longer names go straight to InternSym. The cache is never
// stale: symbols are neither evicted nor reused. The zero value is
// ready to use; a SymCache is not safe for concurrent use.
type SymCache struct {
	e [1 << symCacheBits]symCacheEntry
}

const (
	symCacheBits   = 13
	symCacheInline = 16
)

// symCacheEntry is 32 bytes: an aligned array keeps each in one line.
type symCacheEntry struct {
	lo, hi uint64 // symPack of the name
	s      uint32 // sym+1; 0 marks an empty entry
	n      uint32 // the name's length
	_      uint64
}

// symPack packs a name of at most 16 bytes into two words that, with
// its length, identify it exactly: the loads overlap, but together
// cover every byte.
func symPack(name string) (lo, hi uint64) {
	switch n := len(name); {
	case n >= 8:
		return le64(name), le64(name[n-8:])
	case n >= 4:
		return uint64(le32(name)) | uint64(le32(name[n-4:]))<<32, 0
	case n > 0:
		return uint64(name[0]) | uint64(name[n>>1])<<8 | uint64(name[n-1])<<16, 0
	}
	return 0, 0
}

// entry picks a packed name's entry by a multiplicative hash. It is
// unseeded: names chosen to collide cost cache misses, never a wrong
// symbol, and the table behind the cache is seeded.
func (c *SymCache) entry(lo, hi uint64, n uint32) *symCacheEntry {
	return &c.e[((lo^uint64(n))*0x9E3779B97F4A7C15^hi*0xe7037ed1a0b428db)>>(64-symCacheBits)]
}

// Intern returns InternSym(name).
func (c *SymCache) Intern(name string) Sym {
	if len(name) > symCacheInline {
		return InternSym(name)
	}
	lo, hi := symPack(name)
	n := uint32(len(name))
	e := c.entry(lo, hi, n)
	if e.lo == lo && e.hi == hi && e.n == n && e.s != 0 {
		return Sym(e.s - 1)
	}
	s := InternSym(name)
	*e = symCacheEntry{lo: lo, hi: hi, s: uint32(s) + 1, n: n}
	return s
}

// LookupSym returns the symbol for a name without registering it.
func LookupSym(name string) (Sym, bool) {
	return symIdx.Load().find(symNamesPub.Load(), name, symHash(name))
}

// Name returns the interned text of the symbol. The result is stable
// for the life of the process.
func (s Sym) Name() string {
	if t := symNamesPub.Load(); int(s) < t.n {
		return t.name(s)
	}
	return fmt.Sprintf("sym#%d", uint32(s))
}

// SymCount reports the number of interned symbols (bounded-cardinality
// monitoring).
func SymCount() int { return symNamesPub.Load().n }

// SymBytes reports the total bytes of interned symbol names (retained
// for the life of the process).
func SymBytes() int { return symNamesPub.Load().bytes }

// symWatcher is one armed capacity watermark. fired makes it warn-once:
// a runaway tokenizer interning per-tuple data would otherwise turn the
// warning itself into per-tuple overhead.
type symWatcher struct {
	limit int
	fn    func(count, bytes int)
	fired atomic.Bool
}

var symWatch atomic.Pointer[symWatcher]

// SetSymWatermark arms a warn-once callback invoked the first time the
// intern table grows past limit symbols — the guard rail for the "never
// intern unbounded per-tuple data" contract. The callback receives the
// table's size and retained name bytes; it runs under the intern lock,
// so it must only record or log — never intern. Re-arming replaces the
// previous watermark (and its fired state); limit <= 0 or a nil fn
// disarms.
func SetSymWatermark(limit int, fn func(count, bytes int)) {
	if limit <= 0 || fn == nil {
		symWatch.Store(nil)
		return
	}
	symWatch.Store(&symWatcher{limit: limit, fn: fn})
}

func checkSymWatermark(t *symNames) {
	w := symWatch.Load()
	if w == nil || t.n <= w.limit {
		return
	}
	if w.fired.CompareAndSwap(false, true) {
		w.fn(t.n, t.bytes)
	}
}
