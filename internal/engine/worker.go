package engine

// The worker driver. Run starts a fixed pool of workers, GOMAXPROCS of
// them, and every worker repeatedly scans the tasks it may step in
// topological order, stepping each one that has work: a spout makes a
// few Next calls, an operator admits a few received jumbos, a task
// whose deadline passed fires its timers. A step never blocks, so one
// worker serves any number of tasks, and a batch usually crosses
// several hops within one scan. This is the paper's placement made
// into a schedule (RLAS assigns executors to cores, Section 5), in the
// shape of morsel-driven scheduling: a fixed pool of workers, one per
// core, runs small units of work.
//
// A task is stepped by one worker at a time: the worker claims it with
// a CAS on taskState.claim, and a task stays with the worker that
// stepped it last while that worker is not parked (see pass). Output that does not fit a full ring waits
// in its edge's overflow FIFO (see send), and a task with overflow
// steps nothing until the overflow drains, which bounds it by one
// step's output. A worker that finds nothing to do spins for idleSpin,
// then parks on its group's waiter until a put, a close or a stop wakes
// it, or until the earliest deadline of its tasks. A wake claims one
// parked worker before it sends its token, so the group's tokens plus
// its parked count always equal the workers inside park: no token is
// left over to end a later park at once, and after a run both are 0.
//
// With Config.Pin or Config.Placement (and thread affinity supported)
// each socket gets a group of workers in proportion to its CPUs. Each
// worker pins its thread once, and a task is stepped only by its
// socket's workers.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"briskstream/internal/queue"
	"briskstream/internal/tuple"
)

const (
	// idleSpin is how long a worker keeps scanning after a scan found
	// nothing to do before it parks. Shorter spins cost latency on an
	// open loop (a parked worker's wake-up), longer ones cost CPU.
	idleSpin = 50 * time.Microsecond
	// spoutVisit bounds the Next calls of one spout visit, taskVisit the
	// jumbos one operator visit admits, so a scan reaches every task
	// often enough to keep batches moving hop by hop. A spout that ran
	// into a full ring is ahead of its consumers — the engine is
	// saturated — and gets spoutVisitAhead calls per visit, which keeps
	// its worker on one task's state longer, until a Next comes up
	// empty; at low load the shorter visit lets the worker carry each
	// batch downstream before it emits the next.
	spoutVisit      = 64
	spoutVisitAhead = 256
	taskVisit       = 32
	// spoutPoll is how soon a spout whose last Next emitted nothing is
	// called again once every worker of its group has parked.
	spoutPoll = time.Millisecond
	// cacheLine pads the state other workers read off the task's own
	// fields.
	cacheLine = 64
)

// errHalted ends a spout's task when the run stops: the task exits
// without finishing (no final watermark, no retirement) or failing.
var errHalted = errors.New("engine: halted")

// taskState is the part of a task that workers other than its stepper
// read. Every field is atomic, and the padding keeps it off the cache
// lines of the task's private fields.
type taskState struct {
	_ [cacheLine]byte
	// claim is 1 while a worker steps the task; owner is the worker that
	// stepped it last.
	claim atomic.Uint32
	owner atomic.Pointer[worker]
	// done is set once the task closed its rings: nothing steps it again.
	done atomic.Bool
	// idle is set while the spout's last visit emitted nothing; an idle
	// spout does not keep its group's workers from parking.
	idle atomic.Bool
	// wakeAt mirrors the task's earliest deadline (UnixNano, 0 = none),
	// an idle spout's next poll included.
	wakeAt atomic.Int64
	// blocked is the ring the task's overflow waits on (nil: none).
	blocked atomic.Pointer[queue.Ring[tuple.Jumbo]]
	_       [cacheLine]byte
}

// group is the set of tasks one set of workers steps: every task, or
// with pinning the tasks placed on one socket.
type group struct {
	_ [cacheLine]byte
	// parked counts the group's workers inside park that no wake has
	// claimed yet; a put loads it once.
	parked atomic.Int32
	_      [cacheLine - 4]byte
	// tasks in topological order; cpus is the CPU set the workers pin
	// to (nil: unpinned).
	tasks []*task
	cpus  []int
	// ch is the group's one waiter. Each token in it is owed to one
	// worker inside park, so tokens + parked = workers inside park, and
	// a send never blocks: it holds one token per task, and a group
	// never runs more workers than tasks.
	ch chan struct{}
	// pinned is set by the first worker that pinned its thread this run.
	pinned atomic.Bool
	// parks counts this run's calls to park, wakes the wakes that
	// claimed a worker; each call is claimed at most once, so wakes never
	// exceed parks.
	_     [cacheLine]byte
	parks atomic.Uint64
	wakes atomic.Uint64
}

// claim takes one worker off parked, if any is counted there, and
// reports whether it did.
func (g *group) claim() bool {
	for {
		n := g.parked.Load()
		if n <= 0 {
			return false
		}
		if g.parked.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// wake unparks one of the group's workers, if any is parked, and
// reports whether it did. It claims the worker, then sends the one
// token that worker is owed.
func (g *group) wake() bool {
	if !g.claim() {
		return false
	}
	g.wakes.Add(1)
	g.ch <- struct{}{}
	return true
}

// wakeAll unparks every parked worker of the group.
func (g *group) wakeAll() {
	for g.wake() {
	}
}

// worker is one of the goroutines that step tasks.
type worker struct {
	e *Engine
	g *group
	// tm is the park timer, reused so a park allocates nothing.
	tm *time.Timer
	// parks counts how often the worker really blocked in park this
	// run; parked is set while it is parked, for other workers to read.
	parks  uint64
	_      [cacheLine]byte
	parked atomic.Bool
	_      [cacheLine]byte
}

// buildGroups assigns the tasks to groups in topological order: one
// group for all of them, or with pinning one per host socket that has
// tasks, its workers bound to that socket's CPUs.
func (e *Engine) buildGroups(order []string, sockets [][]int) {
	bySocket := map[int]*group{}
	for _, name := range order {
		for _, t := range e.byOp[name] {
			s := 0
			if len(sockets) > 0 {
				s = int(t.socket) % len(sockets)
			}
			g := bySocket[s]
			if g == nil {
				g = &group{}
				if len(sockets) > 0 {
					g.cpus = sockets[s]
				}
				bySocket[s] = g
				e.groups = append(e.groups, g)
			}
			g.tasks = append(g.tasks, t)
			t.grp = g
		}
	}
	for _, g := range e.groups {
		g.ch = make(chan struct{}, len(g.tasks))
	}
}

// startWorkers starts this run's workers: GOMAXPROCS of them, shared
// among the groups in proportion to their CPUs, at least one and at
// most one per task in each.
func (e *Engine) startWorkers(wg *sync.WaitGroup) {
	procs := runtime.GOMAXPROCS(0)
	cpus := 0
	for _, g := range e.groups {
		cpus += len(g.cpus)
	}
	e.workers = e.workers[:0]
	for _, g := range e.groups {
		g.pinned.Store(false)
		g.parks.Store(0)
		g.wakes.Store(0)
		n := procs
		if cpus > 0 {
			n = (procs*len(g.cpus) + cpus/2) / cpus
		}
		for range min(max(n, 1), len(g.tasks)) {
			w := &worker{e: e, g: g}
			e.workers = append(e.workers, w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.run()
			}()
		}
	}
}

// halt stops the run: spouts end at their next visit, and every parked
// worker wakes to see it.
func (e *Engine) halt() {
	e.stop.Store(true)
	e.wakeAll()
}

// wakeAll unparks every parked worker of the engine.
func (e *Engine) wakeAll() {
	for _, g := range e.groups {
		g.wakeAll()
	}
}

// checkWakes panics unless every group is back to no token and no
// parked count, as it must be once no worker is inside park.
func (e *Engine) checkWakes() {
	for i, g := range e.groups {
		if n, p := len(g.ch), g.parked.Load(); n != 0 || p != 0 {
			panic(fmt.Sprintf("engine: group %d left %d wake tokens and %d parked workers after its run", i, n, p))
		}
	}
}

// run scans until every task of the engine is done, parking when a scan
// and idleSpin more found nothing to do.
func (w *worker) run() {
	// The pin's undo runs last, so the thread returns to the runtime's
	// pool with its original mask however the run ends — which is what
	// keeps Run re-runnable.
	if unpin := pinThread(w.g.cpus); unpin != nil {
		if w.g.pinned.CompareAndSwap(false, true) {
			w.e.pinned.Add(int32(len(w.g.tasks)))
		}
		defer unpin()
	}
	w.tm = time.NewTimer(time.Hour)
	w.tm.Stop()
	var idleFrom int64
	for w.e.live.Load() > 0 {
		var now int64 // one clock read per scan, shared with its deadlines
		if w.scan(&now) {
			idleFrom = 0
			continue
		}
		if now == 0 {
			now = time.Now().UnixNano()
		}
		if idleFrom == 0 {
			idleFrom = now
			continue
		}
		if now-idleFrom >= int64(idleSpin) {
			w.park()
			idleFrom = 0
		}
	}
}

// scan visits every task of the group that has work and that no other
// worker is stepping, and reports whether any visit made progress. A
// task stays with the worker that stepped it last, so its state stays
// in that core's cache: the first pass skips the tasks of other workers
// that are not parked, and only a worker that found nothing of its own
// to do takes them over in a second pass. Both passes check deadlines
// against one clock read, *now, made only if a deadline needs it.
func (w *worker) scan(now *int64) bool {
	return w.pass(false, now) || w.pass(true, now)
}

func (w *worker) pass(steal bool, now *int64) bool {
	progress := false
	for _, t := range w.g.tasks {
		owner := t.st.owner.Load()
		if !steal && owner != nil && owner != w && !owner.parked.Load() {
			continue
		}
		if !t.hasWork(now, false) || !t.st.claim.CompareAndSwap(0, 1) {
			continue
		}
		// Another worker may have stepped the task to its end between
		// the check and the claim.
		if !t.st.done.Load() && w.e.visit(t) {
			progress = true
		}
		if owner != w {
			t.st.owner.Store(w)
		}
		t.st.claim.Store(0)
	}
	return progress
}

// hasWork reports, from the task's shared state alone, whether a visit
// would find something to do: overflow its ring has room for (a task
// with overflow has nothing else to do), a spout to call, input or a
// closed inbox, or a deadline that passed. When parking, an idle spout
// counts only once its poll is due or the run stops, and a claimed task
// not at all: its stepper is running and scans again.
func (t *task) hasWork(now *int64, parking bool) bool {
	st := &t.st
	if st.done.Load() || parking && st.claim.Load() != 0 {
		return false
	}
	if r := st.blocked.Load(); r != nil {
		return r.Len() < r.Cap() || r.Closed()
	}
	if t.spout != nil {
		if !parking || !st.idle.Load() || t.c.e.stop.Load() {
			return true
		}
	} else if t.in.Ready() {
		return true
	}
	at := st.wakeAt.Load()
	if at == 0 {
		return false
	}
	if *now == 0 {
		*now = time.Now().UnixNano()
	}
	return at <= *now
}

// park sleeps until a wake, or until the earliest deadline of the
// group's tasks. A worker inside park is counted either in parked or by
// one token in the group's channel, never both: a wake moves it from
// the one to the other, and every exit without a token goes through
// unpark. The parked count is raised before the tasks are checked once
// more, and a put (or a stop) checks it after its own store, so one of
// the two sides sees the other: no wake-up is lost.
func (w *worker) park() {
	g := w.g
	g.parked.Add(1)
	g.parks.Add(1)
	var now, deadline int64
	for _, t := range g.tasks {
		if t.hasWork(&now, true) {
			w.unpark()
			return
		}
		if t.st.claim.Load() == 0 {
			deadline = earliest(deadline, t.st.wakeAt.Load())
		}
	}
	if w.e.live.Load() == 0 {
		w.unpark()
		return
	}
	if now == 0 && deadline != 0 {
		now = time.Now().UnixNano()
	}
	if deadline != 0 && deadline <= now {
		w.unpark()
		return
	}
	w.parks++
	w.parked.Store(true)
	defer w.parked.Store(false)
	if deadline == 0 {
		<-g.ch
		return
	}
	w.tm.Reset(time.Duration(deadline - now))
	select {
	case <-g.ch:
	case <-w.tm.C:
		w.unpark()
	}
	w.tm.Stop()
}

// unpark leaves park without a wake: it takes the worker off parked, or,
// if a wake already claimed it, takes the token that wake sends.
func (w *worker) unpark() {
	if !w.g.claim() {
		<-w.g.ch
	}
}

// visit steps a claimed task once and reports whether it made progress.
// A panic in the operator or spout ends the task like an error from the
// step, as does the step's own errTaskDone.
func (e *Engine) visit(t *task) (progress bool) {
	defer func() {
		if r := recover(); r != nil {
			e.endTask(t, fmt.Errorf("engine: operator %s panicked: %v", t.label, r))
			progress = true
		}
	}()
	if t.over > 0 {
		if progress = e.unblock(t); t.over > 0 || t.exiting {
			return progress
		}
	}
	var err error
	var stepped bool
	if t.spout != nil {
		stepped, err = e.visitSpout(t)
	} else {
		stepped, err = e.visitOperator(t)
	}
	if err != nil {
		e.endTask(t, err)
		return true
	}
	if at := t.nextDeadline(); t.spout != nil && !stepped {
		t.publishWake(earliest(at, time.Now().Add(spoutPoll).UnixNano()))
	} else {
		t.publishWake(at)
	}
	return progress || stepped
}

// publishWake stores the task's earliest deadline for the workers'
// park, only when it changed.
func (t *task) publishWake(at int64) {
	if at != t.wakeAt {
		t.wakeAt = at
		t.st.wakeAt.Store(at)
	}
}

// visitSpout makes up to spoutVisit Next calls, or spoutVisitAhead
// while the spout is ahead of its consumers (see spoutVisitAhead). A
// visit ends early when the task overflows, a Next emits nothing or the
// run stops. A visit that emitted nothing marks the spout idle and,
// because no further Next may come soon, settles its rows and fires its
// due timers at once.
func (e *Engine) visitSpout(t *task) (bool, error) {
	if e.stop.Load() {
		return true, errHalted
	}
	c := t.c
	emits := c.emits
	limit := spoutVisit
	if t.ahead {
		limit = spoutVisitAhead
	}
	for range limit {
		before := c.emits
		if err := e.stepSpout(t, c); err != nil {
			return true, err
		}
		if t.over > 0 {
			t.ahead = true
			break
		}
		if c.emits == before {
			t.ahead = false
			break
		}
		if e.stop.Load() {
			break
		}
	}
	idle := c.emits == emits
	if idle != t.idle {
		t.idle = idle
		t.st.idle.Store(idle)
	}
	if !idle {
		return true, nil
	}
	if c.settle(); c.fail != nil {
		return false, c.fail
	}
	c.publish()
	return false, e.fireDueTimers(t, c)
}

// visitOperator admits up to taskVisit received jumbos, stopping early
// when the task overflows, then fires the timers that are due if no
// input came. An inbox closed and drained ends the task.
func (e *Engine) visitOperator(t *task) (bool, error) {
	c := t.c
	for k := 0; k < taskVisit; k++ {
		j, ok, err := t.in.TryGet()
		if err != nil {
			if err = e.drainAlignment(t, c); err == nil {
				err = errTaskDone
			}
			return true, err
		}
		if !ok {
			if k > 0 {
				return true, nil
			}
			before := t.nextDeadline()
			if err := e.fireDueTimers(t, c); err != nil {
				return true, err
			}
			return t.nextDeadline() != before, nil
		}
		// The producer may be blocked on the room this made: move its
		// overflow on at once if no other worker steps it, and with
		// pinning its workers may be parked.
		p := e.tasks[j.Producer]
		if p.st.blocked.Load() == p.out[t.id].ring && p.st.claim.CompareAndSwap(0, 1) {
			if !p.st.done.Load() && p.over > 0 {
				e.unblock(p)
			}
			p.st.claim.Store(0)
		}
		if p.grp != t.grp {
			p.grp.wake()
		}
		if err := e.stepTask(t, c, j); err != nil {
			return true, err
		}
		if t.over > 0 {
			break
		}
	}
	return true, nil
}

// unblock drains a claimed task's overflow and reports whether any moved.
// A ring closed under a live task fails it (ErrStopped); an ended task
// closes its rings once its overflow is gone.
func (e *Engine) unblock(t *task) bool {
	moved, err := e.drain(t)
	if err != nil && !t.exiting {
		e.endTask(t, err)
		return true
	}
	if t.exiting && t.over == 0 {
		e.closeTask(t)
	}
	return moved
}

// endTask runs when a step ended its task: errTaskDone finishes it, any
// other error but errHalted fails the run, and whatever the task still
// holds is flushed. The task closes its rings once its overflow drained
// (closeTask), so its consumers see every jumbo it sent before the
// close.
func (e *Engine) endTask(t *task, err error) {
	c := t.c
	if err == errTaskDone {
		e.finishTask(t)
	} else if err != errHalted {
		e.failTask(err)
	}
	c.fwdB = nil // a pending forward dies with a failed task
	c.settle()   // what an operator put before it failed
	e.flushAll(t)
	t.exiting = true
	t.publishWake(0)
	if t.over == 0 {
		e.closeTask(t)
	}
}

// closeTask closes the task's rings, which is what ends its consumers,
// and retires it from the run.
func (e *Engine) closeTask(t *task) {
	e.finishProducing(t)
	t.c.publish() // however the task ended, its final counts are exact
	t.st.blocked.Store(nil)
	t.st.done.Store(true)
	if e.live.Add(-1) == 0 {
		e.wakeAll()
	}
}

// drain moves the task's overflow onto its rings, edge by edge in FIFO
// order, as far as they have room, and records the ring it still waits
// on. A closed ring drops its edge's overflow (the run is shutting
// down), which drain reports as ErrStopped once it is done.
func (e *Engine) drain(t *task) (moved bool, err error) {
	var stuck *queue.Ring[tuple.Jumbo]
	for _, oe := range t.outList {
		for oe.overHead < len(oe.over) {
			ok, perr := oe.ring.TryPut(oe.over[oe.overHead])
			if perr != nil {
				t.over -= len(oe.over) - oe.overHead
				clear(oe.over)
				oe.overHead = len(oe.over)
				err = ErrStopped
				break
			}
			if !ok {
				if stuck == nil {
					stuck = oe.ring
				}
				break
			}
			oe.over[oe.overHead] = tuple.Jumbo{}
			oe.overHead++
			t.over--
			moved = true
			oe.consumer.grp.wake()
		}
		if oe.overHead == len(oe.over) {
			oe.over, oe.overHead = oe.over[:0], 0
		}
	}
	t.st.blocked.Store(stuck)
	return moved, err
}
