package main

import (
	"fmt"
	"time"

	"briskstream/internal/apps"
	"briskstream/internal/engine"
	"briskstream/internal/state"
	"briskstream/internal/tuple"
)

// harnessed is one of the apps' own window operators driven without an
// engine: its own timer service, the microbenchmark collector.
type harnessed struct {
	op engine.Operator
	tm *engine.Timers
	c  *microColl
}

func harness(app, name string) (*harnessed, error) {
	a := apps.ByName(app)
	if a == nil || a.Operators[name] == nil {
		return nil, fmt.Errorf("window microbenchmark: no operator %s.%s", app, name)
	}
	h := &harnessed{op: a.Operators[name](), tm: engine.NewTimers(), c: newMicroColl()}
	if ta, ok := h.op.(engine.TimerAware); ok {
		ta.SetTimers(h.tm)
	}
	return h, nil
}

// advance moves the watermark and fires the operator's due timers, as
// the engine does when a punctuation arrives.
func (h *harnessed) advance(wm int64) error {
	th, _ := h.op.(engine.TimerHandler)
	return h.tm.AdvanceWatermark(wm, func(at int64) error {
		if th == nil {
			return nil
		}
		return th.OnTimer(h.c, engine.EventTimer, at)
	})
}

// adds feeds ops tuples through Process; fill writes tuple i's fields
// and returns its event time.
func (h *harnessed) adds(ops int, fill func(i int, t *tuple.Tuple) int64) (float64, error) {
	t := h.c.pool.Get()
	defer t.Release()
	var err error
	ns := fastest(ops, func() {
		for i := 0; i < ops && err == nil; i++ {
			t.Reset()
			t.Event = fill(i, t)
			err = h.op.Process(h.c, t)
		}
	})
	return ns, err
}

func microWindow(rep *report) error {
	const (
		ops  = 1 << 20
		wide = 100000
	)
	intKey := func(keys int) func(int, *tuple.Tuple) int64 {
		return func(i int, t *tuple.Tuple) int64 {
			t.AppendInt(int64(i % keys))
			return 1 // every tuple lands in the window [0, 1024)
		}
	}

	for _, m := range []struct {
		metric string
		keys   int
	}{{"window.tumbling_add_ns", 32}, {"window.tumbling_add_wide_ns", wide}} {
		h, err := harness("WC", "counter")
		if err != nil {
			return err
		}
		ns, err := h.adds(ops, intKey(m.keys))
		if err != nil {
			return fmt.Errorf("%s: %w", m.metric, err)
		}
		rep.set(m.metric, ns)
	}

	// The vectorized path: 64-row batches over 32 keys.
	h, err := harness("WC", "counter")
	if err != nil {
		return err
	}
	bop, ok := h.op.(engine.BatchOperator)
	if !ok {
		return fmt.Errorf("window.batch_add_ns_per_row: WC counter is not a BatchOperator")
	}
	batch := tuple.NewBatch(64)
	row := h.c.pool.Get()
	for i := 0; !batch.Full(); i++ {
		row.Reset()
		row.AppendInt(int64(i % 32))
		row.Event = 1
		batch.Append(row)
	}
	row.Release()
	rep.set("window.batch_add_ns_per_row", fastest(ops, func() {
		for i := 0; i < ops/64 && err == nil; i++ {
			err = bop.ProcessBatch(h.c, batch)
		}
	}))
	if err != nil {
		return fmt.Errorf("window.batch_add_ns_per_row: %w", err)
	}

	// Fire: fill one window with 100 000 keys (untimed), then time the
	// watermark advance that emits and recycles them. Watermarks only
	// move forward, so each repetition uses the next window.
	if h, err = harness("WC", "counter"); err != nil {
		return err
	}
	fire := time.Duration(1 << 62)
	t := h.c.pool.Get()
	for w := int64(0); w < 3; w++ {
		for k := 0; k < wide; k++ {
			t.Reset()
			t.AppendInt(int64(k))
			t.Event = w*1024 + 1
			if err := h.op.Process(h.c, t); err != nil {
				return fmt.Errorf("window.fire_ns_per_key: %w", err)
			}
		}
		start := time.Now()
		if err := h.advance((w + 1) * 1024); err != nil {
			return fmt.Errorf("window.fire_ns_per_key: %w", err)
		}
		fire = min(fire, time.Since(start))
	}
	t.Release()
	if h.c.sent != 3*wide {
		return fmt.Errorf("window.fire_ns_per_key: fired %d rows, want %d", h.c.sent, 3*wide)
	}
	rep.set("window.fire_ns_per_key", float64(fire)/wide)

	// The other two window shapes, through the apps that ship them.
	devices := make([]string, 512)
	for i := range devices {
		devices[i] = fmt.Sprintf("mote-%03d", i)
	}
	syms := tuple.InternSyms(devices...)
	if h, err = harness("SD", "moving_avg"); err != nil {
		return err
	}
	ns, err := h.adds(ops, func(i int, t *tuple.Tuple) int64 {
		t.AppendSym(syms[i&511])
		t.AppendFloat(20 + float64(i&7))
		return 1
	})
	if err != nil {
		return fmt.Errorf("window.sliding_add_ns: %w", err)
	}
	rep.set("window.sliding_add_ns", ns)

	if h, err = harness("TW", "sessionize"); err != nil {
		return err
	}
	// Event time creeps forward one unit per round over the words, so
	// every mention extends its word's open session.
	ns, err = h.adds(ops, func(i int, t *tuple.Tuple) int64 {
		t.AppendSym(syms[i&511])
		return int64(1 + i>>9)
	})
	if err != nil {
		return fmt.Errorf("window.session_add_ns: %w", err)
	}
	rep.set("window.session_add_ns", ns)

	m := state.NewMap[int64, int64]()
	rep.set("state.map_upsert_ns", fastest(ops, func() {
		for i := 0; i < ops; i++ {
			v, _ := m.GetOrCreate(int64(i % wide))
			*v++
		}
	}))
	return nil
}
