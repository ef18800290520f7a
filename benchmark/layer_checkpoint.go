package main

import (
	"fmt"
	"time"

	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
)

// microCheckpoint snapshots and restores WC's counter holding 100 000
// keys in one open window, through the Snapshotter interface the engine
// uses at a barrier. Checkpointing is off in every measured run; these
// numbers say what turning it on would cost per barrier.
func microCheckpoint(rep *report) error {
	const keys = 100000
	h, err := harness("WC", "counter")
	if err != nil {
		return err
	}
	snap, ok := h.op.(checkpoint.Snapshotter)
	if !ok {
		return fmt.Errorf("checkpoint microbenchmark: WC counter is not a Snapshotter")
	}
	t := h.c.pool.Get()
	for k := 0; k < keys; k++ {
		t.Reset()
		t.AppendInt(int64(k))
		t.Event = 1
		if err := h.op.Process(h.c, t); err != nil {
			return fmt.Errorf("checkpoint microbenchmark: %w", err)
		}
	}
	t.Release()

	enc := checkpoint.NewEncoder()
	ns := fastest(1, func() {
		enc.Reset()
		if e := snap.Snapshot(enc); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("checkpoint.snapshot_ms: %w", err)
	}
	rep.set("checkpoint.snapshot_ms", ns/1e6)
	rep.set("checkpoint.bytes", float64(len(enc.Bytes())))

	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		fresh, err := harness("WC", "counter")
		if err != nil {
			return err
		}
		start := time.Now()
		if err := fresh.op.(checkpoint.Snapshotter).Restore(checkpoint.NewDecoder(enc.Bytes())); err != nil {
			return fmt.Errorf("checkpoint.restore_ms: %w", err)
		}
		best = min(best, time.Since(start))
	}
	rep.set("checkpoint.restore_ms", float64(best)/1e6)
	return nil
}

// withCheckpoints configures the one extra wc_widekeys_sat trial behind
// checkpoint.overhead_pct: aligned barriers every 500 ms into an
// in-memory store.
func withCheckpoints(cfg *engine.Config) {
	cfg.Checkpoint = checkpoint.NewCoordinator(checkpoint.NewMemoryStore())
	cfg.CheckpointInterval = 500 * time.Millisecond
}
