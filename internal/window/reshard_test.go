package window

// Re-sharding property tests: a keyed window snapshot taken at
// replication r and re-encoded at replication r' must preserve every
// (key, value) pair exactly once, assign each key to the shard its hash
// selects (the owner the engine's fields routing will deliver to), and
// produce shards that are valid, byte-stable Restore payloads.

import (
	"bytes"
	"fmt"
	"testing"

	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
	"briskstream/internal/tuple"
)

func TestReshardPreservesEveryPairAndOwnership(t *testing.T) {
	const oldRepl = 3
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}
	events := randomEvents(7, 4000, keys, 50)

	// Partition the stream across oldRepl operator instances exactly
	// like the engine's fields routing would, with no watermark driver:
	// every window stays open, so the snapshots hold the full state.
	var sinkhole []emission
	ops := make([]engine.Operator, oldRepl)
	for i := range ops {
		ops[i] = snapCountOp(100, 100, 0, &sinkhole)
	}
	in := &tuple.Tuple{}
	for _, ev := range events {
		in.Reset()
		in.AppendStr(ev.key)
		in.AppendInt(1)
		in.Event = ev.et
		owner := tuple.StrKey(ev.key).Hash() % uint64(oldRepl)
		if err := ops[owner].Process(nil, in); err != nil {
			t.Fatal(err)
		}
	}
	old := make([][]byte, oldRepl)
	for i, op := range ops {
		enc := checkpoint.NewEncoder()
		if err := op.(checkpoint.Snapshotter).Snapshot(enc); err != nil {
			t.Fatal(err)
		}
		old[i] = bytes.Clone(enc.Bytes())
	}

	// The expected union of (key, start) -> (count, sum).
	type pair struct {
		key   string
		start int64
	}
	type val struct{ count, sum int64 }
	want := map[pair]val{}
	for _, payload := range old {
		dec := checkpoint.NewDecoder(payload)
		dec.Uint64() // late counter
		n := dec.Len()
		for i := 0; i < n; i++ {
			p := pair{key: dec.Key().Str(), start: dec.Int64()}
			v := val{count: dec.Int64(), sum: dec.Int64()}
			if _, dup := want[p]; dup {
				t.Fatalf("duplicate %v in source snapshots", p)
			}
			want[p] = v
		}
		if err := dec.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if len(want) == 0 {
		t.Fatal("test produced no open windows")
	}

	for _, newRepl := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("to_%d", newRepl), func(t *testing.T) {
			rs := snapCountOp(100, 100, 0, &sinkhole).(checkpoint.Resharder)
			shards, err := rs.Reshard(old, newRepl)
			if err != nil {
				t.Fatal(err)
			}
			if len(shards) != newRepl {
				t.Fatalf("got %d shards, want %d", len(shards), newRepl)
			}
			seen := map[pair]val{}
			for s, payload := range shards {
				dec := checkpoint.NewDecoder(payload)
				dec.Uint64()
				n := dec.Len()
				for i := 0; i < n; i++ {
					key := dec.Key()
					p := pair{key: key.Str(), start: dec.Int64()}
					v := val{count: dec.Int64(), sum: dec.Int64()}
					if owner := int(key.Hash() % uint64(newRepl)); owner != s {
						t.Fatalf("key %q landed in shard %d, its owner is %d", p.key, s, owner)
					}
					if _, dup := seen[p]; dup {
						t.Fatalf("%v assigned to more than one shard", p)
					}
					seen[p] = v
				}
				if err := dec.Err(); err != nil {
					t.Fatalf("shard %d: %v", s, err)
				}
				if dec.Remaining() != 0 {
					t.Fatalf("shard %d has %d trailing bytes", s, dec.Remaining())
				}

				// Each shard must restore into a fresh operator and
				// re-snapshot to identical bytes (valid + deterministic).
				fresh := snapCountOp(100, 100, 0, &sinkhole)
				if err := fresh.(checkpoint.Snapshotter).Restore(checkpoint.NewDecoder(payload)); err != nil {
					t.Fatalf("shard %d restore: %v", s, err)
				}
				enc := checkpoint.NewEncoder()
				if err := fresh.(checkpoint.Snapshotter).Snapshot(enc); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(enc.Bytes(), payload) {
					t.Fatalf("shard %d is not byte-stable through restore", s)
				}
			}
			if len(seen) != len(want) {
				t.Fatalf("reshard kept %d pairs, want %d", len(seen), len(want))
			}
			for p, v := range want {
				if seen[p] != v {
					t.Fatalf("pair %v: got %+v, want %+v", p, seen[p], v)
				}
			}
		})
	}
}

func TestReshardRejectsMissingCodecsAndBadCounts(t *testing.T) {
	var sinkhole []emission
	good := snapCountOp(100, 100, 0, &sinkhole).(checkpoint.Resharder)
	if _, err := good.Reshard(nil, 0); err == nil {
		t.Fatal("Reshard to 0 replicas must fail")
	}
	bad := New(Op[countAcc]{
		KeyField: 0, Size: 100,
		Init: func(a *countAcc) { *a = countAcc{} },
		Add:  func(a *countAcc, b *tuple.Batch, r int) { a.count++ },
		Emit: func(c engine.Collector, key tuple.Key, w Span, a *countAcc) {},
	}).(checkpoint.Resharder)
	if _, err := bad.Reshard(nil, 2); err == nil {
		t.Fatal("Reshard without Save/Load must fail")
	}
}
