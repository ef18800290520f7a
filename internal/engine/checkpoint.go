package engine

// Aligned-barrier checkpointing (Chandy–Lamport adapted to the
// shared-memory engine). TriggerCheckpoint publishes a checkpoint
// request; every source task picks it up between Next calls, records
// its replay offset, acks to the coordinator and broadcasts a barrier
// punctuation on all its edges (the trailer of the jumbo carrying the
// data it follows). Every downstream task aligns: once one
// producer edge has delivered the barrier, batches arriving on that
// edge are parked (the data belongs after the snapshot) while the other
// edges keep draining; when the last edge's barrier arrives the task
// snapshots its operator in its own step, acks, re-broadcasts the
// barrier, and replays the parked batches. The coordinator persists the
// checkpoint once every task acked — so a completed checkpoint is a
// consistent global cut: each task's state reflects exactly the tuples
// its sources emitted before their barriers, no more, no less.
//
// Recovery is Restore + Run: the next Run rebuilds every task's state
// from the latest completed checkpoint after its usual re-run reset,
// seeks each ReplayableSpout back to its recorded offset, and the
// deterministic sources regenerate the exact post-checkpoint stream.

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"briskstream/internal/checkpoint"
	"briskstream/internal/tuple"
)

// ReplayableSpout is a source that can rewind: Offset reports the
// position of the stream as a count of emitted tuples, and SeekTo
// repositions the source so that the next emitted tuple is the one that
// followed position offset. A replayable source must be deterministic —
// after SeekTo(n) it must emit exactly the tuples it would have emitted
// after its first n — or recovery diverges from the failure-free run.
// Sources with state beyond their offset (e.g. an exhausted upstream
// cursor) additionally implement checkpoint.Snapshotter.
type ReplayableSpout interface {
	Spout
	Offset() int64
	SeekTo(offset int64) error
}

// ErrNoCheckpoint is returned by Restore when no checkpoint has
// completed yet.
var ErrNoCheckpoint = errors.New("engine: no completed checkpoint to restore from")

// barrierDone, carried in a barrier punctuation's Event field, marks a
// producer that finished (spout EOF) and will never emit another
// barrier. Alignment excludes done producers — the barrier analogue of
// WatermarkIdle — so checkpoints triggered while part of the topology
// has already ended cannot park the live part forever. Real checkpoint
// ids are positive, so the sentinel cannot collide.
const barrierDone = int64(-1)

// TriggerCheckpoint starts one aligned checkpoint and returns its id
// (0 when checkpointing is not configured). It is safe to call from any
// goroutine while the engine runs; Run triggers it on a ticker when
// Config.CheckpointInterval is set (skipping a tick while the previous
// checkpoint is still in flight). The checkpoint completes — and
// becomes visible to Restore — only once every task has snapshotted.
func (e *Engine) TriggerCheckpoint() uint64 {
	if e.coord == nil {
		return 0
	}
	id := e.ckptSeq.Add(1)
	labels := make([]string, len(e.tasks))
	for i, t := range e.tasks {
		labels[i] = t.label
	}
	// Register with the coordinator before publishing the request:
	// a source must never ack a checkpoint the coordinator has not begun.
	// (Begin can persist immediately — every task already retired — and
	// a persist failure surfaces like any other run error.)
	if err := e.coord.Begin(id, labels); err != nil {
		e.recordErr(err)
		return 0
	}
	for {
		cur := e.ckptReq.Load()
		if id <= cur || e.ckptReq.CompareAndSwap(cur, id) {
			break
		}
	}
	e.event("checkpoint_begin", "", map[string]string{"id": strconv.FormatUint(id, 10)})
	return id
}

// Kill aborts the current run the way a crash would: processing stops
// and the queues close with no final watermark and no flush of open
// windows. It exists for failure injection (briskbench -kill-after and
// the recovery tests). The engine stays usable: Restore followed by Run
// resumes from the latest completed checkpoint.
func (e *Engine) Kill() {
	e.closeAllQueues()
	e.halt()
	e.event("kill", "", nil)
}

// Restore arranges for the next Run to rebuild every task from the
// latest completed checkpoint: operator state is re-loaded, sources are
// sought back to their recorded offsets, and the replayed stream
// regenerates everything after the cut. It returns the checkpoint id
// that will be restored. Restore must not be called while a run is in
// progress.
func (e *Engine) Restore() (uint64, error) {
	if e.coord == nil {
		return 0, errors.New("engine: checkpointing not configured (Config.Checkpoint is nil)")
	}
	cp, err := e.coord.Latest()
	if err != nil {
		return 0, err
	}
	if cp == nil {
		return 0, ErrNoCheckpoint
	}
	e.restoreCp = cp
	e.event("restore", "", map[string]string{"id": strconv.FormatUint(cp.ID, 10)})
	return cp.ID, nil
}

// snapshot frames the task's checkpoint bytes — a source: replayable
// flag and replay offset; an operator: the task watermark (part of the
// cut: restoring it keeps late-tuple semantics identical across the
// replay) — then the Snapshotter flag and state. applyRestore reads the
// same framing back.
func (t *task) snapshot() ([]byte, error) {
	enc := checkpoint.NewEncoder()
	var member any = t.operator
	if t.spout != nil {
		member = t.spout
		if rs, ok := t.spout.(ReplayableSpout); ok {
			enc.Bool(true)
			enc.Int64(rs.Offset())
		} else {
			enc.Bool(false)
		}
	} else {
		enc.Int64(t.tm.wm)
	}
	if s, ok := member.(checkpoint.Snapshotter); ok {
		enc.Bool(true)
		if err := s.Snapshot(enc); err != nil {
			return nil, fmt.Errorf("engine: task %s snapshot: %w", t.label, err)
		}
	} else {
		enc.Bool(false)
	}
	return enc.Bytes(), nil
}

// sourceBarrier takes a source task's local snapshot for checkpoint id,
// acks, and broadcasts the barrier behind everything the source has
// emitted so far.
func (e *Engine) sourceBarrier(t *task, c *collector, id uint64) error {
	t.lastCkpt = id
	snap, err := t.snapshot()
	if err != nil {
		return err
	}
	if err := e.coord.Ack(id, t.label, snap); err != nil {
		return err
	}
	return e.broadcastPunct(t, tuple.PunctBarrier, int64(id), c.latencyTs())
}

// retireTask hands the coordinator a naturally finished task's final
// snapshot, so checkpoints keep completing — and stay restorable —
// while part of the topology has already ended. A restored retired
// source seeks to its final offset and immediately EOFs again; a
// restored retired operator holds its final state.
func (e *Engine) retireTask(t *task) error {
	snap, err := t.snapshot()
	if err != nil {
		return err
	}
	return e.coord.Retire(t.label, snap)
}

// finishTask runs when a task completes naturally (spout EOF, or a
// consumer whose inbox closed outside a shutdown): under checkpointing
// the task retires with its final state. Crash-shaped exits (stop flag,
// task failure) never retire — a killed run's state is not final.
func (e *Engine) finishTask(t *task) {
	if e.coord == nil || e.stop.Load() {
		return
	}
	if err := e.retireTask(t); err != nil {
		e.failTask(err)
	}
}

// handleBarrier processes one received barrier: start or advance the
// task's alignment, and complete it when the last producer edge
// delivers.
func (e *Engine) handleBarrier(t *task, c *collector, id uint64, producer int) error {
	if t.alignID != 0 && id > t.alignID {
		// A newer barrier overtook the checkpoint being aligned (a source
		// skipped a request id): that checkpoint can never complete here.
		// Give it up, replaying the input its alignment parked.
		if err := e.giveUpAlignment(t, c); err != nil {
			return err
		}
	}
	if t.alignID == 0 {
		if id <= t.lastCkpt {
			return nil // stale barrier for a checkpoint already handled
		}
		t.alignID = id
		t.alignLeft = 0
		clear(t.alignSeen)
		// Done producers count as pre-aligned: they will never send this
		// (or any) barrier.
		for _, p := range t.prods {
			if t.doneIn[p] {
				t.alignSeen[p] = true
			} else {
				t.alignLeft++
			}
		}
		// Arm the skew bound: if the slowest edges have not delivered
		// their barrier by the deadline, the attempt is abandoned and the
		// parked input replayed (alignTimedOut). Completing or abandoning
		// the alignment clears the deadline.
		if e.cfg.AlignTimeout > 0 && t.alignLeft > 1 {
			t.alignAt = time.Now().Add(e.cfg.AlignTimeout).UnixNano()
		}
	}
	if id != t.alignID {
		return nil // older than the alignment in progress: obsolete
	}
	if !t.alignSeen[producer] {
		t.alignSeen[producer] = true
		t.alignLeft--
	}
	if t.alignLeft > 0 {
		return nil
	}
	return e.completeAlignment(t, c)
}

// handleDoneBarrier marks a finished producer: it is excluded from the
// current and all future alignments, and once every producer of this
// task is done, the task itself can never forward a barrier again — the
// done marker propagates, exactly like all-idle watermark propagation.
func (e *Engine) handleDoneBarrier(t *task, c *collector, producer int) error {
	if t.doneIn[producer] {
		return nil
	}
	t.doneIn[producer] = true
	if t.alignID != 0 && !t.alignSeen[producer] {
		t.alignSeen[producer] = true
		t.alignLeft--
		if t.alignLeft == 0 {
			if err := e.completeAlignment(t, c); err != nil {
				return err
			}
		}
	}
	for _, p := range t.prods {
		if !t.doneIn[p] {
			return nil
		}
	}
	return e.broadcastPunct(t, tuple.PunctBarrier, barrierDone, time.Time{})
}

// completeAlignment runs once every producer edge has delivered the
// barrier: snapshot the operator at the consistent cut, ack, forward
// the barrier, then replay the batches alignment parked.
func (e *Engine) completeAlignment(t *task, c *collector) error {
	id := t.alignID
	t.alignID = 0
	t.alignLeft = 0
	t.alignAt = 0
	clear(t.alignSeen)
	t.lastCkpt = id
	snap, err := t.snapshot()
	if err != nil {
		return err
	}
	if err := e.coord.Ack(id, t.label, snap); err != nil {
		return err
	}
	if err := e.broadcastPunct(t, tuple.PunctBarrier, int64(id), c.latencyTs()); err != nil {
		return err
	}
	buf := t.alignBuf
	t.alignBuf = nil
	return e.replayParked(t, c, buf)
}

// alignTimedOut fires when an alignment attempt outlives
// Config.AlignTimeout: the checkpoint attempt is dropped at this task
// (the laggard barriers become stale on arrival) and the parked jumbos
// replay, so pathological producer skew bounds parked memory by the
// timeout instead of by the skew.
func (e *Engine) alignTimedOut(t *task, c *collector) error {
	e.alignTimeouts.Add(1)
	e.event("checkpoint_timeout", t.label, map[string]string{"id": strconv.FormatUint(t.alignID, 10)})
	if t.alignID > t.lastCkpt {
		t.lastCkpt = t.alignID
	}
	return e.giveUpAlignment(t, c)
}

// giveUpAlignment abandons an alignment whose checkpoint can no longer
// complete at this task while the run goes on, and tells the
// coordinator to forget that checkpoint — the periodic trigger waits
// for the in-flight one, so a dead one must not stay in flight.
func (e *Engine) giveUpAlignment(t *task, c *collector) error {
	e.coord.Discard(t.alignID)
	return e.abandonAlignment(t, c)
}

// abandonAlignment gives up on the checkpoint being aligned (it will
// never complete on this task) and replays the parked input so no tuple
// is lost.
func (e *Engine) abandonAlignment(t *task, c *collector) error {
	t.alignID = 0
	t.alignLeft = 0
	t.alignAt = 0
	clear(t.alignSeen)
	buf := t.alignBuf
	t.alignBuf = nil
	return e.replayParked(t, c, buf)
}

// replayParked consumes batches parked during an alignment through the
// same gate as live input (admit): a batch from an edge that is (now)
// aligned for a newer checkpoint parks again. Nested barriers in the
// parked input are handled like live ones, so back-to-back checkpoints
// compose.
func (e *Engine) replayParked(t *task, c *collector, buf []tuple.Jumbo) error {
	for _, j := range buf {
		if err := e.admit(t, c, j); err != nil {
			return err // the task is failing; the rest of buf goes to the GC
		}
	}
	return nil
}

// drainAlignment runs when a task's inbox closes (EOF or shutdown)
// while an alignment might be in progress: the missing barriers will
// never arrive, so the in-flight checkpoint is abandoned — but the
// parked batches are still processed, because shutdown must not drop
// data (a checkpoint may even complete here, if all its barriers were
// already parked). An error during the drain fails the task like any
// processing error.
func (e *Engine) drainAlignment(t *task, c *collector) error {
	for t.alignID != 0 || len(t.alignBuf) > 0 {
		if err := e.abandonAlignment(t, c); err != nil {
			return err
		}
	}
	return nil
}

// applyRestore rebuilds every task from a completed checkpoint. It runs
// inside Run, after the re-run reset and before any worker
// starts, so restored timers and watermarks survive into the run.
func (e *Engine) applyRestore(cp *checkpoint.Checkpoint) error {
	for _, t := range e.tasks {
		data, ok := cp.Tasks[t.label]
		if !ok {
			return fmt.Errorf("engine: checkpoint %d has no snapshot for task %s (topology changed?)", cp.ID, t.label)
		}
		dec := checkpoint.NewDecoder(data)
		if t.spout != nil {
			if dec.Bool() {
				off := dec.Int64()
				rs, ok := t.spout.(ReplayableSpout)
				if !ok {
					return fmt.Errorf("engine: checkpoint %d: spout %s recorded an offset but is not replayable", cp.ID, t.label)
				}
				if err := rs.SeekTo(off); err != nil {
					return fmt.Errorf("engine: spout %s seek to %d: %w", t.label, off, err)
				}
			}
			if dec.Bool() {
				s, ok := t.spout.(checkpoint.Snapshotter)
				if !ok {
					return fmt.Errorf("engine: checkpoint %d: spout %s recorded state but is not a Snapshotter", cp.ID, t.label)
				}
				if err := s.Restore(dec); err != nil {
					return fmt.Errorf("engine: spout %s restore: %w", t.label, err)
				}
			}
		} else {
			t.tm.wm = dec.Int64()
			atomic.StoreInt64(&t.wmLive, t.tm.wm)
			if dec.Bool() {
				s, ok := t.operator.(checkpoint.Snapshotter)
				if !ok {
					return fmt.Errorf("engine: checkpoint %d: task %s recorded state but is not a Snapshotter", cp.ID, t.label)
				}
				if err := s.Restore(dec); err != nil {
					return fmt.Errorf("engine: task %s restore: %w", t.label, err)
				}
			}
		}
		if err := dec.Err(); err != nil {
			return fmt.Errorf("engine: task %s: %w", t.label, err)
		}
	}
	return nil
}

// latencyTs returns the punctuation latency timestamp (punctuations are
// rare, so each carries one when sampling is on — barriers inherit the
// same policy as watermarks, keeping checkpoint-induced latency
// observable at the sinks).
func (c *collector) latencyTs() time.Time {
	if c.e.cfg.LatencySampleEvery > 0 {
		return time.Now()
	}
	return time.Time{}
}
