package tuple

import (
	"math/rand/v2"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

var (
	freshSeq atomic.Int64
	symSink  Sym
)

// freshSymNames returns n names the table has never seen: each call
// draws its own prefix, so repeated runs (-count) never reuse a name.
func freshSymNames(tag string, n int) []string {
	prefix := tag + "-" + strconv.FormatInt(freshSeq.Add(1), 10) + "-"
	names := make([]string, n)
	for i := range names {
		names[i] = prefix + strconv.Itoa(i)
	}
	return names
}

// growSymTable bulk-interns fresh names until the table holds n.
func growSymTable(n int) {
	if m := SymCount(); m < n {
		InternSyms(freshSymNames("fill", n-m)...)
	}
}

// Eight writers race to intern overlapping sets of fresh names, some
// one by one and some in bulk, across index doublings, while readers
// look names up and read them back. Every name must end with exactly
// one symbol, the new symbols must be dense, and Name must round-trip.
func TestSymConcurrentIntern(t *testing.T) {
	const writers, n = 8, 1 << 16
	// One P per goroutine, so writers interleave even on a small host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(writers + 2))
	names := freshSymNames("conc", n)
	base, slots0 := SymCount(), len(symIdx.Load().slots)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := r; ; i = (i + 7919) % n {
				select {
				case <-stop:
					return
				default:
				}
				if s, ok := LookupSym(names[i]); ok && s.Name() != names[i] {
					t.Errorf("LookupSym(%q) = %d, which names %q", names[i], s, s.Name())
					return
				}
			}
		}()
	}

	// got[w][i] is 1 + the symbol writer w got for names[i], 0 where w
	// did not cover names[i]. Each writer covers three quarters of the
	// names; four start at name 0 and four at name n/2, half of each
	// four one by one and half in blocks, so the same name is raced
	// at the same moment, and every name by at least four writers.
	got := make([][]Sym, writers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range writers {
		got[w] = make([]Sym, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			off, cover := w/4*n/2, 3*n/4
			for k := 0; k < cover; {
				if w%2 == 0 {
					i := (off + k) % n
					got[w][i] = InternSym(names[i]) + 1
					k++
					continue
				}
				block := make([]string, 0, 64)
				idx := make([]int, 0, 64)
				for ; k < cover && len(block) < cap(block); k++ {
					i := (off + k) % n
					block = append(block, names[i])
					idx = append(idx, i)
				}
				for j, s := range InternSyms(block...) {
					got[w][idx[j]] = s + 1
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(stop)
	readers.Wait()

	if grew := SymCount() - base; grew != n {
		t.Fatalf("SymCount grew by %d for %d distinct names", grew, n)
	}
	// In a fresh process the table starts far below n names, so the
	// writers race through several doublings; a rerun (-count) starts
	// from a table that may already have room.
	if slots := len(symIdx.Load().slots); 2*(base+n) > slots0 && slots <= slots0 {
		t.Fatalf("index stayed at %d slots: the run crossed no doubling", slots)
	}
	owner := make([]int, n) // symbol - base -> 1 + name index
	for i, name := range names {
		var s Sym
		for w := range writers {
			if g := got[w][i]; g != 0 {
				if s != 0 && g != s {
					t.Fatalf("%q interned as both %d and %d", name, s-1, g-1)
				}
				s = g
			}
		}
		s--
		if int(s) < base || int(s) >= base+n {
			t.Fatalf("%q got symbol %d, outside the dense range [%d, %d)", name, s, base, base+n)
		}
		if o := owner[int(s)-base]; o != 0 {
			t.Fatalf("%q and %q share symbol %d", names[o-1], name, s)
		}
		owner[int(s)-base] = i + 1
		if s.Name() != name {
			t.Fatalf("symbol %d names %q, want %q", s, s.Name(), name)
		}
		if l, ok := LookupSym(name); !ok || l != s {
			t.Fatalf("LookupSym(%q) = %d,%v, want %d", name, l, ok, s)
		}
	}
}

// SymCache.Intern must agree with InternSym on every word: short and
// long (past the inline limit), repeated, evicted by a colliding word,
// differing from another in one byte, and empty. A hit allocates
// nothing.
func TestSymCacheMatchesInternSym(t *testing.T) {
	rng := rand.New(rand.NewPCG(40, 2))
	pool := []string{strings.Repeat("x", symCacheInline), strings.Repeat("x", symCacheInline+1)}
	// Every word over {a, b} of up to 10 letters: any packing that
	// skips a byte position makes two of them share an entry key.
	for n := 0; n <= 10; n++ {
		for bits := 0; bits < 1<<n; bits++ {
			w := make([]byte, n)
			for i := range w {
				w[i] = "ab"[bits>>i&1]
			}
			pool = append(pool, string(w))
		}
	}
	for len(pool) < 12000 { // more words than entries: evictions happen
		w := make([]byte, rng.IntN(41))
		for i := range w {
			w[i] = "abcdefgh"[rng.IntN(8)]
		}
		pool = append(pool, string(w))
	}
	// Words sharing an entry, looked up alternately, evict each other.
	var c SymCache
	byEntry := map[*symCacheEntry]string{}
	var collide []string
	for _, w := range pool {
		if len(w) > symCacheInline {
			continue
		}
		lo, hi := symPack(w)
		e := c.entry(lo, hi, uint32(len(w)))
		if o, ok := byEntry[e]; ok && o != w && len(collide) < 200 {
			collide = append(collide, o, w, o, w)
		}
		byEntry[e] = w
	}
	if len(collide) == 0 {
		t.Fatal("no two pool words share a cache entry")
	}

	check := func(w string) {
		t.Helper()
		got, want := c.Intern(w), InternSym(w)
		if got != want || got.Name() != w {
			t.Fatalf("SymCache.Intern(%q) = %d (%q), InternSym = %d", w, got, got.Name(), want)
		}
	}
	for range 4 * len(pool) {
		check(pool[rng.IntN(len(pool))])
	}
	for _, w := range collide {
		check(w)
	}
	for _, w := range pool {
		check(w)
	}

	hot := "hot-word"
	check(hot)
	if a := testing.AllocsPerRun(100, func() { symSink = c.Intern(hot) }); a != 0 {
		t.Errorf("a SymCache hit allocates %.1f times", a)
	}
}

// A fresh name costs an amortized constant allocation whatever the
// table's size: no registration may copy the table. Timing-free, so it
// holds on any host.
func TestSymColdPathAllocBounded(t *testing.T) {
	const fresh = 4096
	growSymTable(100_000)
	// An index doubling is one allocation the size of the table, paid
	// for by the names since the previous doubling; keep it out of the
	// measured window.
	if room := len(symIdx.Load().slots)/2 - SymCount(); room < fresh {
		InternSyms(freshSymNames("pad", room+1)...)
	}
	names := freshSymNames("cold", fresh)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, name := range names {
		symSink = InternSym(name)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / fresh; per > 256 {
		t.Errorf("a fresh name allocates %d bytes in a %d-name table, want <= 256", per, SymCount())
	}
}
