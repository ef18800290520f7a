package tuple

import (
	"math/rand/v2"
	"strconv"
	"testing"
)

// The symbol benchmarks grow the process-global table for good (every
// cold iteration registers a name), so run them at a fixed count, e.g.
// -benchtime 20000x; `make bench-symbols` runs each once. Each checks
// the symbols it got, so a run that completes is also a correct one.

// hotWords are 32 short words, the splitter's working set in miniature.
var hotWords = func() []string {
	w := make([]string, 32)
	for i := range w {
		w[i] = "hot" + strconv.Itoa(i)
	}
	return w
}()

// BenchmarkInternSymCold registers one fresh name per op in a table of
// at least 10 000 names.
func BenchmarkInternSymCold(b *testing.B) {
	growSymTable(10_000)
	names := freshSymNames("bench-cold", b.N)
	n := SymCount()
	b.ResetTimer()
	for _, name := range names {
		symSink = InternSym(name)
	}
	b.StopTimer()
	if grew := SymCount() - n; grew != b.N || symSink.Name() != names[b.N-1] {
		b.Fatalf("%d fresh names grew the table by %d; the last reads back %q", b.N, grew, symSink.Name())
	}
}

// BenchmarkInternSymHot looks up 32 known words in turn through the
// global table, which holds at least 10 000 names.
func BenchmarkInternSymHot(b *testing.B) {
	growSymTable(10_000)
	InternSyms(hotWords...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		symSink = InternSym(hotWords[i&31])
	}
	b.StopTimer()
	if w := hotWords[(b.N-1)&31]; symSink.Name() != w {
		b.Fatalf("%q interned as %d, which names %q", w, symSink, symSink.Name())
	}
}

// wideNames is a 400 000-name population, interned on first use.
var wideNames []string

// BenchmarkInternSymWide looks up known names at random in a table of
// at least 400 000: every lookup misses the CPU caches.
func BenchmarkInternSymWide(b *testing.B) {
	if wideNames == nil {
		wideNames = freshSymNames("bench-wide", 400_000)
		InternSyms(wideNames...)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	order := make([]string, 1<<16)
	for i := range order {
		order[i] = wideNames[rng.IntN(len(wideNames))]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		symSink = InternSym(order[i&(len(order)-1)])
	}
	b.StopTimer()
	if w := order[(b.N-1)&(len(order)-1)]; symSink.Name() != w {
		b.Fatalf("%q interned as %d, which names %q", w, symSink, symSink.Name())
	}
}

// BenchmarkSymCacheHit looks up the same 32 words through a warm
// SymCache.
func BenchmarkSymCacheHit(b *testing.B) {
	var c SymCache
	for _, w := range hotWords {
		if s := c.Intern(w); s != InternSym(w) {
			b.Fatalf("SymCache.Intern(%q) = %d, InternSym = %d", w, s, InternSym(w))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		symSink = c.Intern(hotWords[i&31])
	}
}
