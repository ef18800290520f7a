package briskstream

// Live telemetry for running topologies. RunConfig.Obs attaches a
// metric registry, an event journal, and (with Addr set) an HTTP
// server to the run: /metrics serves Prometheus text exposition,
// /statusz a JSON summary, /events the journal, /traces the sampled
// per-tuple traces (with TraceEvery set), /healthz liveness, and
// /debug/pprof/ the standard profiles. Everything is stdlib-only and
// reads the counters the engine already maintains — observability
// costs the data path one predictable branch at the sampled
// sink-latency site and nothing per tuple.

import (
	"strconv"
	"time"

	"briskstream/internal/engine"
	"briskstream/internal/obs"
	"briskstream/internal/tuple"
)

// ObsConfig enables live telemetry for a Run.
type ObsConfig struct {
	// Addr is the HTTP listen address (e.g. ":9090", "127.0.0.1:0").
	// Empty runs no server: metrics still aggregate and events still
	// reach RunConfig.OnEvent, which is how embedded callers consume
	// telemetry without opening a port.
	Addr string
	// Window is the widest rolling aggregation span for rates and
	// quantiles (default 60s; a 10s span is always published too).
	Window time.Duration
	// SampleEvery overrides the end-to-end latency sampling stride:
	// every k-th spout tuple is timestamped and measured at the sink
	// (default 64; 1 measures every tuple).
	SampleEvery int
	// SymWatermark overrides the interned-symbol count whose first
	// crossing is journaled as a "sym_watermark" event — the early
	// warning that unbounded key cardinality is being interned
	// (default 100000; negative disables the watch).
	SymWatermark int
	// TraceEvery enables end-to-end tracing: every k-th spout tuple is
	// stamped with a trace context and leaves one span per hop it
	// crosses. The server's /traces endpoint serves recent traces as
	// JSON or Chrome trace-event format (?fmt=chrome, Perfetto-
	// loadable), and /statusz carries the aggregated per-operator
	// bottleneck breakdown. Default 0 (tracing off).
	TraceEvery int
}

// ObsEvent is one structured lifecycle event (run start/stop,
// checkpoint begin/complete/timeout, advisor decisions, rescales).
// Seq increases monotonically per run session; Attrs carry
// event-specific details as strings.
type ObsEvent = obs.Event

// obsSession holds one Run's telemetry plumbing: the registry metric
// series pull from, the journal events append to, and the optional
// HTTP server exposing both.
type obsSession struct {
	reg    *obs.Registry
	jr     *obs.Journal
	tracer *obs.Tracer
	srv    *obs.Server
}

// startObs builds the session for one Run call: process-level gauges,
// the journal (with the caller's OnEvent hook armed before any event
// can fire), the intern-table watermark watch, and the HTTP server
// when an address is configured. Returns nil when cfg.Obs is nil and
// no OnEvent hook is set — the zero-cost default.
func startObs(cfg RunConfig) (*obsSession, error) {
	if cfg.Obs == nil && cfg.OnEvent == nil {
		return nil, nil
	}
	oc := cfg.Obs
	if oc == nil {
		oc = &ObsConfig{}
	}
	s := &obsSession{
		reg: obs.NewRegistry(oc.Window),
		jr:  obs.NewJournal(0),
	}
	if oc.TraceEvery > 0 {
		s.tracer = obs.NewTracer()
	}
	if cfg.OnEvent != nil {
		s.jr.SetOnEvent(cfg.OnEvent)
	}

	g := s.reg.Group("process")
	started := time.Now()
	g.Gauge("brisk_uptime_seconds", "Seconds since this Run's telemetry session started.", nil, func() float64 {
		return time.Since(started).Seconds()
	})
	g.Gauge("brisk_sym_count", "Interned symbol names alive in the process-wide table.", nil, func() float64 {
		return float64(tuple.SymCount())
	})
	g.Gauge("brisk_sym_bytes", "Bytes held by interned symbol names.", nil, func() float64 {
		return float64(tuple.SymBytes())
	})

	// Arm the intern-table early warning: the first crossing of the
	// watermark is a lifecycle event, because a topology interning an
	// unbounded key domain will otherwise only be noticed as slow
	// memory growth.
	wm := oc.SymWatermark
	if wm == 0 {
		wm = 100_000
	}
	if wm > 0 {
		tuple.SetSymWatermark(wm, func(count, bytes int) {
			s.jr.Emit(obs.Event{Type: "sym_watermark", Attrs: map[string]string{
				"count": strconv.Itoa(count),
				"bytes": strconv.Itoa(bytes),
			}})
		})
	}

	if oc.Addr != "" {
		srv, err := obs.Serve(oc.Addr, s.reg, s.jr, s.tracer)
		if err != nil {
			s.close()
			return nil, err
		}
		s.srv = srv
		// Journaled so callers binding to ":0" can discover the real
		// port through OnEvent instead of plumbing the server handle.
		s.jr.Emit(obs.Event{Type: "obs_serving", Attrs: map[string]string{"addr": srv.Addr()}})
	}
	return s, nil
}

// bindEngine points the session's engine metric group and journal at
// e. The adaptive loop rebinds each segment's fresh engine into the
// same group, replacing the dead engine's series.
func (s *obsSession) bindEngine(e *engine.Engine) {
	if s == nil {
		return
	}
	e.RegisterObs(s.reg.Group("engine"), s.jr)
	if s.tracer != nil {
		e.RegisterTrace(s.tracer)
	}
}

// status registers a /statusz extension on the session's server (no-op
// without a server or on a nil session).
func (s *obsSession) status(key string, fn func() any) {
	if s == nil || s.srv == nil {
		return
	}
	s.srv.SetStatus(key, fn)
}

// event appends one root-level lifecycle event (autoscaler decisions,
// rescales) to the journal. No-op on a nil session.
func (s *obsSession) event(typ string, attrs map[string]string) {
	if s == nil {
		return
	}
	s.jr.Emit(obs.Event{Type: typ, Attrs: attrs})
}

// close tears the session down: the symbol watch is disarmed (it
// captures the session's journal) and the server, if any, stops
// listening. Safe on a nil session.
func (s *obsSession) close() {
	if s == nil {
		return
	}
	tuple.SetSymWatermark(0, nil)
	if s.srv != nil {
		_ = s.srv.Close()
	}
}

// applyObsEngineConfig folds observability needs into the engine
// config: the latency sampling stride and the trace sampling stride,
// when set.
func applyObsEngineConfig(ecfg *engine.Config, cfg RunConfig) {
	if cfg.Obs == nil {
		return
	}
	if cfg.Obs.SampleEvery > 0 {
		ecfg.LatencySampleEvery = cfg.Obs.SampleEvery
	}
	if cfg.Obs.TraceEvery > 0 {
		ecfg.TraceSampleEvery = cfg.Obs.TraceEvery
	}
}
