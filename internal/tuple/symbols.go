package tuple

import (
	"fmt"
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
// never from unbounded per-tuple data — every first-seen name rebuilds
// the table under a lock and is retained forever. High-cardinality
// strings belong in the arena (AppendStr), not here.
//
// Symbol ids are process-local and depend on interning order; nothing
// durable may record an id. The serialization paths (tuple wire format,
// checkpoint key codec) encode a symbol as its name and re-intern on
// decode, which keeps encodings byte-stable and lets a recovered
// process rebuild identical keys.

// Sym is an interned symbol id.
type Sym uint32

// symTable is the immutable snapshot of the symbol intern table;
// InternSym publishes a fresh copy per registration (copy-on-write), so
// per-tuple lookups are lock-free loads.
type symTable struct {
	byName map[string]Sym
	names  []string
	bytes  int // total interned name bytes (capacity accounting)
}

var (
	symsMu sync.Mutex
	syms   atomic.Pointer[symTable]
)

func init() {
	syms.Store(&symTable{byName: map[string]Sym{}})
}

// InternSym returns the symbol for name, registering it on first use.
// Safe for concurrent use; lookups of known names are lock-free.
func InternSym(name string) Sym {
	if s, ok := syms.Load().byName[name]; ok {
		return s
	}
	symsMu.Lock()
	defer symsMu.Unlock()
	cur := syms.Load()
	if s, ok := cur.byName[name]; ok {
		return s
	}
	// The caller's string may be a view into a tuple or batch arena (the
	// tokenizer path interns substrings of Str results); the table
	// retains the name forever, so it must own the bytes.
	name = strings.Clone(name)
	next := &symTable{
		byName: make(map[string]Sym, len(cur.byName)+1),
		names:  make([]string, len(cur.names), len(cur.names)+1),
		bytes:  cur.bytes + len(name),
	}
	for k, v := range cur.byName {
		next.byName[k] = v
	}
	copy(next.names, cur.names)
	s := Sym(len(next.names))
	next.byName[name] = s
	next.names = append(next.names, name)
	syms.Store(next)
	checkSymWatermark(next)
	return s
}

// InternSyms registers a batch of names under one lock with one table
// rebuild and returns their symbols. Sequential InternSym calls copy
// the whole table per registration (O(n²) for n names); bulk
// pre-interning of a vocabulary or id population belongs here.
func InternSyms(names ...string) []Sym {
	out := make([]Sym, len(names))
	symsMu.Lock()
	defer symsMu.Unlock()
	cur := syms.Load()
	missing := 0
	for _, name := range names {
		if _, ok := cur.byName[name]; !ok {
			missing++
		}
	}
	if missing == 0 {
		for i, name := range names {
			out[i] = cur.byName[name]
		}
		return out
	}
	next := &symTable{
		byName: make(map[string]Sym, len(cur.byName)+missing),
		names:  make([]string, len(cur.names), len(cur.names)+missing),
		bytes:  cur.bytes,
	}
	for k, v := range cur.byName {
		next.byName[k] = v
	}
	copy(next.names, cur.names)
	for i, name := range names {
		s, ok := next.byName[name]
		if !ok {
			name = strings.Clone(name)
			s = Sym(len(next.names))
			next.byName[name] = s
			next.names = append(next.names, name)
			next.bytes += len(name)
		}
		out[i] = s
	}
	syms.Store(next)
	checkSymWatermark(next)
	return out
}

// InternSymBytes interns the symbol named by b. The already-interned
// path allocates nothing (the map lookup does not materialize the
// string), which is what lets tokenizers emit symbols straight from a
// scratch buffer.
func InternSymBytes(b []byte) Sym {
	if s, ok := syms.Load().byName[string(b)]; ok {
		return s
	}
	return InternSym(string(b))
}

// LookupSym returns the symbol for a name without registering it.
func LookupSym(name string) (Sym, bool) {
	s, ok := syms.Load().byName[name]
	return s, ok
}

// Name returns the interned text of the symbol. The result is stable
// for the life of the process.
func (s Sym) Name() string {
	t := syms.Load()
	if int(s) < len(t.names) {
		return t.names[s]
	}
	return fmt.Sprintf("sym#%d", uint32(s))
}

// SymCount reports the number of interned symbols (bounded-cardinality
// monitoring).
func SymCount() int { return len(syms.Load().names) }

// SymBytes reports the total bytes of interned symbol names (retained
// for the life of the process).
func SymBytes() int { return syms.Load().bytes }

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

func checkSymWatermark(t *symTable) {
	w := symWatch.Load()
	if w == nil || len(t.names) <= w.limit {
		return
	}
	if w.fired.CompareAndSwap(false, true) {
		w.fn(len(t.names), t.bytes)
	}
}
