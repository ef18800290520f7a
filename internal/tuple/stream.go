package tuple

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// StreamID is an interned stream identifier. The engine resolves stream
// names to IDs once at wiring time (and operators may intern the names
// of their output streams at construction), so the per-tuple routing
// match is an integer compare instead of a string compare, and carrying
// the stream in a tuple costs four bytes instead of a string header.
type StreamID uint32

// DefaultStreamID is the interned id of DefaultStream. The intern table
// is seeded with it, so the zero StreamID always means "default".
const DefaultStreamID StreamID = 0

// streamTable is the immutable snapshot of the intern table. Intern
// publishes a fresh copy on every registration (copy-on-write), so
// lookups — including the per-tuple compat path that still emits by
// stream name — are lock-free loads.
type streamTable struct {
	byName map[string]StreamID
	names  []string
}

var (
	streamsMu sync.Mutex
	streams   atomic.Pointer[streamTable]
)

func init() {
	streams.Store(&streamTable{
		byName: map[string]StreamID{DefaultStream: DefaultStreamID},
		names:  []string{DefaultStream},
	})
}

// Intern returns the StreamID for a stream name, registering the name on
// first use. It is safe for concurrent use; registration is expected at
// wiring/construction time, lookups of known names are lock-free.
//
// The table is process-global and never evicts: stream names must be a
// small bounded set fixed by the topology, never computed per tuple or
// per key (each first-seen name rebuilds the table under a lock and is
// retained for the life of the process).
func Intern(name string) StreamID {
	if id, ok := streams.Load().byName[name]; ok {
		return id
	}
	streamsMu.Lock()
	defer streamsMu.Unlock()
	cur := streams.Load()
	if id, ok := cur.byName[name]; ok {
		return id
	}
	next := &streamTable{
		byName: make(map[string]StreamID, len(cur.byName)+1),
		names:  make([]string, len(cur.names), len(cur.names)+1),
	}
	for k, v := range cur.byName {
		next.byName[k] = v
	}
	copy(next.names, cur.names)
	id := StreamID(len(next.names))
	next.byName[name] = id
	next.names = append(next.names, name)
	streams.Store(next)
	return id
}

// String returns the interned stream name.
func (id StreamID) String() string {
	t := streams.Load()
	if int(id) < len(t.names) {
		return t.names[id]
	}
	return fmt.Sprintf("stream#%d", uint32(id))
}
