package adaptive

import (
	"testing"
	"time"

	"briskstream/internal/profile"
)

// snap builds one engine snapshot whose per-op counters are consistent
// with the chainApp profile (selectivity 10, baseline Te), with the
// given cumulative queue-wait per op.
func snap(at time.Time, scale uint64, wait map[string]uint64) profile.EngineSnapshot {
	st := chainStats()
	mk := func(op string, processed uint64) profile.TaskSnapshot {
		te := uint64(st[op].Te)
		return profile.TaskSnapshot{
			Op:             op,
			Processed:      processed,
			Emitted:        uint64(float64(processed) * st[op].TotalSelectivity()),
			ServiceNs:      processed * te,
			QueueWaitNs:    wait[op],
			QueueWaitBatch: processed / 64,
		}
	}
	return profile.EngineSnapshot{At: at, Tasks: []profile.TaskSnapshot{
		mk("spout", 1000*scale),
		mk("expand", 1000*scale),
		mk("consume", 10000*scale),
		mk("sink", 10000*scale),
	}}
}

func TestBackpressuredFlagsQueueingOperator(t *testing.T) {
	g := chainApp(t)
	m := testMachine()
	cur := optimize(t, g, chainStats(), m)
	a, err := New(g, chainStats(), cur, Config{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Backpressured(); got != nil {
		t.Fatalf("backpressured with no snapshots: %v", got)
	}

	// consume processed 10000 tuples at Te=800ns (8ms of service) but its
	// input waited 100ms in queues — far past the 4x threshold. expand's
	// wait stays well under its service time.
	base := time.Unix(5000, 0)
	if err := a.RecordEngine(snap(base, 1, nil)); err != nil {
		t.Fatal(err)
	}
	if err := a.RecordEngine(snap(base.Add(time.Second), 2, map[string]uint64{
		"expand":  1_000_000,   // 1ms wait vs 1.5ms service: fine
		"consume": 100_000_000, // 100ms wait vs 8ms service: backpressured
	})); err != nil {
		t.Fatal(err)
	}
	got := a.Backpressured()
	if len(got) != 1 || got[0] != "consume" {
		t.Fatalf("backpressured = %v, want [consume]", got)
	}

	// The signal reaches Drifted even though Te and selectivity match the
	// baseline exactly.
	drifted, err := a.Drifted()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, op := range drifted {
		if op == "consume" {
			found = true
		}
	}
	if !found {
		t.Fatalf("drifted = %v, want consume included via backpressure", drifted)
	}
}

func TestBackpressureDisabled(t *testing.T) {
	g := chainApp(t)
	m := testMachine()
	cur := optimize(t, g, chainStats(), m)
	a, err := New(g, chainStats(), cur, Config{Machine: m, Backpressure: -1})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(6000, 0)
	if err := a.RecordEngine(snap(base, 1, nil)); err != nil {
		t.Fatal(err)
	}
	if err := a.RecordEngine(snap(base.Add(time.Second), 2, map[string]uint64{
		"consume": 100_000_000,
	})); err != nil {
		t.Fatal(err)
	}
	if got := a.Backpressured(); got != nil {
		t.Fatalf("negative threshold should disable the signal, got %v", got)
	}
}
