package checkpoint

import (
	"fmt"
	"sync"
	"time"
)

// Coordinator tracks in-flight checkpoints across the tasks of one
// engine. The engine calls Begin when it triggers a barrier, every task
// calls Ack with its local snapshot once its barriers aligned (sources
// ack at injection), and the checkpoint is persisted to the Store —
// and only then observable through Latest — once the final task acks.
// Incomplete checkpoints (a task failed, the run was killed mid-align)
// are never persisted; they are discarded when a later checkpoint
// completes, or as soon as a task reports (Discard) that it gave up on
// the attempt.
//
// All methods are safe for concurrent use: acks arrive from every task
// goroutine.
type Coordinator struct {
	store Store

	mu        sync.Mutex
	pending   map[uint64]*pendingCkpt
	retired   map[string][]byte // finished tasks' final snapshots
	completed uint64            // count of completed checkpoints (stats)
	latestID  uint64            // highest completed id
	seedErr   error             // store failure while seeding the id floor

	// onComplete observes every persisted checkpoint with its begin and
	// persist times (the obs layer turns the pair into begin→persist
	// duration metrics and journal events). Called outside the lock.
	onComplete func(id uint64, began, done time.Time)
}

type pendingCkpt struct {
	expect map[string]bool // task labels still missing
	tasks  map[string][]byte
	began  time.Time // when Begin registered the checkpoint
}

// NewCoordinator builds a coordinator over the given store (nil defaults
// to an in-memory store). The completed-id floor is seeded from the
// store's latest checkpoint, so a coordinator opened over a persistent
// store after a process restart hands out ids above everything already
// saved — new checkpoints can never be shadowed by a dead run's files.
func NewCoordinator(store Store) *Coordinator {
	if store == nil {
		store = NewMemoryStore()
	}
	co := &Coordinator{store: store, pending: map[uint64]*pendingCkpt{}, retired: map[string][]byte{}}
	switch cp, err := store.Latest(); {
	case err != nil:
		// An unreadable store cannot seed the floor — and could not
		// serve a Restore either. Surface it on the first Begin instead
		// of silently allocating ids a corrupt high-id file would shadow.
		co.seedErr = fmt.Errorf("checkpoint: seeding coordinator floor: %w", err)
	case cp != nil:
		co.latestID = cp.ID
	}
	return co
}

// Store returns the coordinator's backing store.
func (co *Coordinator) Store() Store { return co.store }

// SetOnComplete arms an observer invoked (outside the coordinator
// lock) after each checkpoint persists, with the checkpoint id and its
// Begin/persist times. Re-arming replaces the previous observer; the
// engine's obs registration sets it, so a coordinator shared across
// adaptive segments reports into the live registration.
func (co *Coordinator) SetOnComplete(fn func(id uint64, began, done time.Time)) {
	co.mu.Lock()
	co.onComplete = fn
	co.mu.Unlock()
}

// Begin registers checkpoint id as in flight, expecting one Ack from
// every listed task. Retired (finished) tasks are filled in with their
// final snapshots immediately — which can complete (and persist) the
// checkpoint on the spot when the whole topology has finished.
// Re-beginning a known id is a no-op.
func (co *Coordinator) Begin(id uint64, tasks []string) error {
	co.mu.Lock()
	if co.seedErr != nil {
		err := co.seedErr
		co.mu.Unlock()
		return err
	}
	if _, ok := co.pending[id]; ok || id <= co.latestID {
		co.mu.Unlock()
		return nil
	}
	p := &pendingCkpt{expect: make(map[string]bool, len(tasks)), tasks: make(map[string][]byte, len(tasks)), began: time.Now()}
	for _, t := range tasks {
		p.expect[t] = true
	}
	co.pending[id] = p
	done := co.applyRetiredLocked(id, p)
	co.mu.Unlock()
	if done == nil {
		return nil
	}
	return co.persist(id, done)
}

// applyRetiredLocked fills a pending checkpoint with every retired
// task's final snapshot; it returns the checkpoint if that completed it.
func (co *Coordinator) applyRetiredLocked(id uint64, p *pendingCkpt) *pendingCkpt {
	for task, snap := range co.retired {
		if p.expect[task] {
			delete(p.expect, task)
			p.tasks[task] = snap
		}
	}
	if len(p.expect) > 0 {
		return nil
	}
	delete(co.pending, id)
	return p
}

// Ack delivers one task's local snapshot for checkpoint id. The ack
// that completes the task set persists the checkpoint; acks for
// unknown (never begun, or already discarded) checkpoints are dropped —
// a task may deliver a barrier the coordinator gave up on.
func (co *Coordinator) Ack(id uint64, task string, snapshot []byte) error {
	co.mu.Lock()
	p, ok := co.pending[id]
	if !ok || !p.expect[task] {
		co.mu.Unlock()
		return nil
	}
	delete(p.expect, task)
	p.tasks[task] = snapshot
	if len(p.expect) > 0 {
		co.mu.Unlock()
		return nil
	}
	delete(co.pending, id)
	co.mu.Unlock()
	return co.persist(id, p)
}

// Discard drops in-flight checkpoint id: a task gave up on it (its
// alignment timed out, or a newer barrier overtook it), so it can never
// complete. Later acks for it are dropped like any unknown id's.
func (co *Coordinator) Discard(id uint64) {
	co.mu.Lock()
	delete(co.pending, id)
	co.mu.Unlock()
}

// Pending reports how many checkpoints are in flight (begun, neither
// completed nor discarded).
func (co *Coordinator) Pending() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return len(co.pending)
}

// Retire records that a task finished cleanly with the given final
// snapshot: it is excluded from (and auto-filled into) this and every
// future checkpoint, so checkpoints keep completing while part of the
// topology has already ended. A crash is not a retirement — the engine
// retires tasks only on natural completion.
func (co *Coordinator) Retire(task string, snapshot []byte) error {
	co.mu.Lock()
	co.retired[task] = snapshot
	var ids []uint64
	var done []*pendingCkpt
	for id, p := range co.pending {
		if !p.expect[task] {
			continue
		}
		delete(p.expect, task)
		p.tasks[task] = snapshot
		if len(p.expect) == 0 {
			delete(co.pending, id)
			ids = append(ids, id)
			done = append(done, p)
		}
	}
	co.mu.Unlock()
	for i, p := range done {
		if err := co.persist(ids[i], p); err != nil {
			return err
		}
	}
	return nil
}

// persist saves a completed checkpoint. The completed counter and the
// restore floor advance only after the store accepted it — a failed
// Save must not leave the coordinator claiming a checkpoint the store
// does not hold (Latest would return nil while LatestID lied, and the
// floor would refuse the ids of retried checkpoints forever). Save runs
// outside the lock: file stores do real IO.
func (co *Coordinator) persist(id uint64, p *pendingCkpt) error {
	if err := co.store.Save(&Checkpoint{ID: id, Tasks: p.tasks}); err != nil {
		return fmt.Errorf("checkpoint %d: %w", id, err)
	}
	// Recovery only ever reads Latest: once id is durable, everything
	// older is dead weight (checkpoint every second for a week and the
	// store would otherwise hold ~600k full snapshots). A prune failure
	// is deliberately not a checkpoint failure — the checkpoint IS
	// durable, and a leftover older file can never shadow a newer id —
	// so the leftovers just wait for the next successful prune.
	if pr, ok := co.store.(interface{ Prune(keepFrom uint64) error }); ok {
		_ = pr.Prune(id)
	}
	co.mu.Lock()
	co.completed++
	if id > co.latestID {
		co.latestID = id
	}
	// Discard older pending checkpoints: their barriers can no longer
	// beat this one to completion usefully.
	for pid := range co.pending {
		if pid < id {
			delete(co.pending, pid)
		}
	}
	onComplete := co.onComplete
	co.mu.Unlock()
	if onComplete != nil {
		onComplete(id, p.began, time.Now())
	}
	return nil
}

// Completed reports how many checkpoints have completed.
func (co *Coordinator) Completed() uint64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.completed
}

// LatestID reports the highest completed checkpoint id (0 if none).
func (co *Coordinator) LatestID() uint64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.latestID
}

// Latest returns the most recent completed checkpoint from the store,
// or nil if none has completed.
func (co *Coordinator) Latest() (*Checkpoint, error) {
	return co.store.Latest()
}

// Abandon discards every in-flight checkpoint and all retirements
// (engine restart: the surviving barriers of the dead run can never
// complete, and every task is alive again).
func (co *Coordinator) Abandon() {
	co.mu.Lock()
	defer co.mu.Unlock()
	clear(co.pending)
	clear(co.retired)
}
