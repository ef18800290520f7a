package main

import (
	"fmt"
	"io"
	"time"

	"briskstream/internal/apps"
	"briskstream/internal/engine"
	"briskstream/internal/obs"
)

// microObs times the telemetry layer's hot-path calls and one scrape.
// Telemetry is off in every measured run; obs.overhead_pct (fd_sat's
// traced run) is what turning it on costs end to end.
func microObs(rep *report) error {
	const ops = 1 << 20
	hist := obs.NewHistogram()
	rep.set("obs.hist_observe_ns", fastest(ops, func() {
		for i := 0; i < ops; i++ {
			hist.Observe(float64(i))
		}
	}))
	ring := obs.NewTraceRing(1024)
	rep.set("obs.trace_append_ns", fastest(ops, func() {
		for i := 0; i < ops; i++ {
			ring.Append(obs.Span{TraceID: uint64(i), AtNs: int64(i), Kind: obs.SpanHop})
		}
	}))

	e, err := engine.New(apps.ByName("FD").Topology(nil), engine.DefaultConfig())
	if err != nil {
		return fmt.Errorf("obs.prom_write_ms: %w", err)
	}
	reg := obs.NewRegistry(0)
	e.RegisterObs(reg.Group("engine"), obs.NewJournal(0))
	ns := fastest(1, func() {
		if e := reg.WriteProm(io.Discard); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("obs.prom_write_ms: %w", err)
	}
	rep.set("obs.prom_write_ms", ns/1e6)
	return nil
}

// telemetry runs a trial the way a monitored deployment runs, for the
// one extra fd_sat trial behind obs.overhead_pct: the metric registry
// and journal registered, and a trace for every 64th tuple.
var telemetry = runOpts{
	tune: func(cfg *engine.Config) { cfg.TraceSampleEvery = 64 },
	prepare: func(e *engine.Engine) {
		e.RegisterObs(obs.NewRegistry(time.Minute).Group("engine"), obs.NewJournal(0))
		e.RegisterTrace(obs.NewTracer())
	},
}
