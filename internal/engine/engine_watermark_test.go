package engine

// Watermark-semantics coverage: punctuations broadcast across replicas
// on shuffle and fields grouping, min-merge at fan-in, idle-source
// exclusion, event-timer delivery on the execution thread, and the
// final-watermark flush on finite streams.

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"briskstream/internal/graph"
	"briskstream/internal/tuple"
)

// wmAction scripts one step of a scripted spout.
type wmAction struct {
	emit int64 // event time to emit a tuple at (when emitTuple)
	wm   int64 // watermark to emit (when !emitTuple)
	tup  bool
}

func tupAt(et int64) wmAction { return wmAction{emit: et, tup: true} }
func wmAt(wm int64) wmAction  { return wmAction{wm: wm} }

// scriptedSpout replays its actions once, then returns io.EOF — or, if
// spin is set, keeps returning without emitting (an open-ended source)
// until the run's duration bound stops the engine.
type scriptedSpout struct {
	actions []wmAction
	i       int
	spin    bool
}

func (s *scriptedSpout) Next(c Collector) error {
	if s.i >= len(s.actions) {
		if s.spin {
			return nil
		}
		return io.EOF
	}
	a := s.actions[s.i]
	s.i++
	if a.tup {
		out := c.Borrow()
		out.AppendInt(a.emit)
		out.Event = a.emit
		c.Send(out)
	} else {
		c.EmitWatermark(a.wm)
	}
	return nil
}

// wmProbe records the watermark advances and timer fires its replica
// observes; registrations are scripted via timersAt.
type wmProbe struct {
	mu       *sync.Mutex
	log      *[][]string // per replica
	replica  int
	tm       *Timers
	timersAt []int64
}

func (p *wmProbe) SetTimers(tm *Timers) { p.tm = tm }

func (p *wmProbe) Process(c Collector, t *tuple.Tuple) error {
	for _, at := range p.timersAt {
		p.tm.RegisterEvent(at)
	}
	p.timersAt = nil
	return nil
}

func (p *wmProbe) record(s string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(*p.log) <= p.replica {
		*p.log = append(*p.log, nil)
	}
	(*p.log)[p.replica] = append((*p.log)[p.replica], s)
}

func (p *wmProbe) OnTimer(c Collector, kind TimerKind, at int64) error {
	if kind == EventTimer {
		p.record(sprintf("timer:%d", at))
	}
	return nil
}

func (p *wmProbe) OnWatermark(c Collector, wm int64) error {
	if wm == WatermarkMax {
		p.record("wm:max")
	} else {
		p.record(sprintf("wm:%d", wm))
	}
	return nil
}

func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// runProbe builds spouts (by name) -> "probe" (replicas, part) -> sink
// and runs it to completion (spouts EOF after their script, triggering
// the final watermark), returning the per-replica logs.
func runProbe(t *testing.T, spoutScripts map[string][]wmAction, replicas int, part graph.Partitioning, timersAt []int64) [][]string {
	t.Helper()
	return runProbeMode(t, spoutScripts, replicas, part, timersAt, 0)
}

// runProbeMode with d > 0 keeps exhausted spouts spinning (no EOF, no
// final watermark) and stops the run after d instead.
func runProbeMode(t *testing.T, spoutScripts map[string][]wmAction, replicas int, part graph.Partitioning, timersAt []int64, d time.Duration) [][]string {
	t.Helper()
	g := graph.New("wmtest")
	for name := range spoutScripts {
		if err := g.AddNode(&graph.Node{Name: name, IsSpout: true, Selectivity: map[string]float64{"default": 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddNode(&graph.Node{Name: "probe", Selectivity: map[string]float64{"default": 1}}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(&graph.Node{Name: "sink", IsSink: true}); err != nil {
		t.Fatal(err)
	}
	for name := range spoutScripts {
		if err := g.AddEdge(graph.Edge{From: name, To: "probe", Stream: "default", Partitioning: part, KeyField: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(graph.Edge{From: "probe", To: "sink", Stream: "default"}); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var log [][]string
	nextReplica := 0
	spouts := map[string]func() Spout{}
	for name, script := range spoutScripts {
		script := script
		spouts[name] = func() Spout { return &scriptedSpout{actions: script, spin: d > 0} }
	}
	topo := Topology{
		App:    g,
		Spouts: spouts,
		Operators: map[string]func() Operator{
			"probe": func() Operator {
				p := &wmProbe{mu: &mu, log: &log, replica: nextReplica, timersAt: timersAt}
				nextReplica++
				return p
			},
			"sink": func() Operator {
				return OperatorFunc(func(c Collector, t *tuple.Tuple) error { return nil })
			},
		},
		Replication: map[string]int{"probe": replicas},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	for len(log) < replicas {
		log = append(log, nil)
	}
	return log
}

func assertLog(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("log = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("log = %v, want %v", got, want)
		}
	}
}

// TestWatermarkMinMergeAtFanIn: a lagging producer pins the fan-in's
// watermark no matter how far the fast producer runs ahead. The spouts
// never EOF (no final watermark), so the laggard's 50 bounds the merge
// for the whole run — the only advance any interleaving can produce.
func TestWatermarkMinMergeAtFanIn(t *testing.T) {
	log := runProbeMode(t, map[string][]wmAction{
		"src_fast": {tupAt(1), wmAt(100), wmAt(200), wmAt(300)},
		"src_slow": {tupAt(2), wmAt(50)},
	}, 1, graph.Shuffle, nil, 250*time.Millisecond)
	assertLog(t, log[0], "wm:50")
}

// TestWatermarkSingleSourceAdvances: with one producer the merge is the
// identity and every scripted advance is observed, in order.
func TestWatermarkSingleSourceAdvances(t *testing.T) {
	log := runProbe(t, map[string][]wmAction{
		"src": {tupAt(1), wmAt(50), wmAt(100), wmAt(300)},
	}, 1, graph.Shuffle, nil)
	assertLog(t, log[0], "wm:50", "wm:100", "wm:300", "wm:max")
}

// TestWatermarkBroadcastAcrossReplicas: every replica of a fields- and a
// shuffle-grouped consumer sees every watermark, even though each data
// tuple reaches exactly one replica.
func TestWatermarkBroadcastAcrossReplicas(t *testing.T) {
	for _, part := range []graph.Partitioning{graph.Shuffle, graph.Fields} {
		log := runProbe(t, map[string][]wmAction{
			"src": {tupAt(1), tupAt(2), tupAt(3), wmAt(10), wmAt(20)},
		}, 3, part, nil)
		for r := 0; r < 3; r++ {
			assertLog(t, log[r], "wm:10", "wm:20", "wm:max")
		}
	}
}

// TestWatermarkIdleSourceExcluded: an idle source must not hold back
// event time for the fan-in; the active source alone drives it. The
// spouts never EOF, so without idle exclusion no advance at all could
// be observed (the idle source never reports an ordinary watermark).
func TestWatermarkIdleSourceExcluded(t *testing.T) {
	log := runProbeMode(t, map[string][]wmAction{
		"active": {tupAt(1), wmAt(100), wmAt(150)},
		"idle":   {wmAt(WatermarkIdle)},
	}, 1, graph.Shuffle, nil, 250*time.Millisecond)
	// Arrival order of the idle marker vs. the active watermarks decides
	// whether 100 is observed as its own advance, so assert the
	// invariants: monotone advances ending at 150.
	got := log[0]
	if len(got) == 0 {
		t.Fatal("no advance observed: idle source held back the merge")
	}
	if got[len(got)-1] != "wm:150" {
		t.Fatalf("log = %v, want last advance wm:150", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("log = %v: advances not increasing", got)
		}
	}
}

// TestEventTimersFireOnAdvance: timers registered during Process fire
// in order, before the same advance's OnWatermark notification, and
// exactly once.
func TestEventTimersFireOnAdvance(t *testing.T) {
	log := runProbe(t, map[string][]wmAction{
		"src": {tupAt(1), wmAt(15), wmAt(40)},
	}, 1, graph.Shuffle, []int64{30, 10})
	assertLog(t, log[0],
		"timer:10", "wm:15", // advance to 15 fires the 10-timer first
		"timer:30", "wm:40", // advance to 40 fires the 30-timer
		"wm:max",
	)
}

// timedSpout registers an event timer, emits a watermark beyond it,
// then EOFs; it records its OnTimer callbacks.
type timedSpout struct {
	tm    *Timers
	fired *[]int64
	step  int
}

func (s *timedSpout) SetTimers(tm *Timers) { s.tm = tm }

func (s *timedSpout) Next(c Collector) error {
	switch s.step {
	case 0:
		s.tm.RegisterEvent(25)
		s.tm.RegisterEvent(75)
		out := c.Borrow()
		out.AppendInt(1)
		out.Event = 1
		c.Send(out)
	case 1:
		c.EmitWatermark(50) // past the 25-timer, before the 75-timer
	default:
		return io.EOF // final watermark fires the rest
	}
	s.step++
	return nil
}

func (s *timedSpout) OnTimer(c Collector, kind TimerKind, at int64) error {
	if kind == EventTimer {
		*s.fired = append(*s.fired, at)
	}
	return nil
}

// TestSpoutEventTimersFire: a source's own event timers advance on its
// emitted watermarks — no punctuation ever flows INTO a source, so
// EmitWatermark itself must drive its timers.
func TestSpoutEventTimersFire(t *testing.T) {
	g := graph.New("spouttimer")
	g.AddNode(&graph.Node{Name: "src", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "src", To: "sink", Stream: "default"})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var fired []int64
	topo := Topology{
		App:    g,
		Spouts: map[string]func() Spout{"src": func() Spout { return &timedSpout{fired: &fired} }},
		Operators: map[string]func() Operator{
			"sink": func() Operator {
				return OperatorFunc(func(c Collector, tp *tuple.Tuple) error { return nil })
			},
		},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if len(fired) != 2 || fired[0] != 25 || fired[1] != 75 {
		t.Fatalf("spout timers fired %v, want [25 75] (25 at wm 50, 75 at the EOF flush)", fired)
	}
}

// sweepSpout registers processing-time timers at 1 and 2 ns past the
// epoch (due at the first poll) and event timers at 10 and 20, then
// emits watermark 30 from the first processing-time timer's callback.
type sweepSpout struct {
	tm    *Timers
	log   *[]string
	nexts int
}

func (s *sweepSpout) SetTimers(tm *Timers) { s.tm = tm }

func (s *sweepSpout) Next(c Collector) error {
	if s.nexts == 0 {
		s.tm.RegisterProcAt(time.Unix(0, 1))
		s.tm.RegisterProcAt(time.Unix(0, 2))
		s.tm.RegisterEvent(10)
		s.tm.RegisterEvent(20)
	}
	if s.nexts++; s.nexts > 64 { // past the spout's timer poll (every 32nd Next)
		return io.EOF
	}
	return nil
}

func (s *sweepSpout) OnTimer(c Collector, kind TimerKind, at int64) error {
	*s.log = append(*s.log, fmt.Sprintf("%d:%d", kind, at))
	if kind == ProcTimer && at == 1 {
		c.EmitWatermark(30)
	}
	return nil
}

// TestProcTimerEmittingWatermarkKeepsSweep: a processing-time timer
// whose callback advances the watermark (firing event timers) must not
// disturb the processing-time sweep it runs in: the second
// processing-time timer still fires, once, with its own timestamp.
func TestProcTimerEmittingWatermarkKeepsSweep(t *testing.T) {
	g := graph.New("sweep")
	g.AddNode(&graph.Node{Name: "src", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "src", To: "sink", Stream: "default"})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var log []string
	e, err := New(Topology{
		App:    g,
		Spouts: map[string]func() Spout{"src": func() Spout { return &sweepSpout{log: &log} }},
		Operators: map[string]func() Operator{
			"sink": func() Operator {
				return OperatorFunc(func(c Collector, tp *tuple.Tuple) error { return nil })
			},
		},
	}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	// kind:at, EventTimer = 0, ProcTimer = 1.
	if got, want := fmt.Sprint(log), "[1:1 0:10 0:20 1:2]"; got != want {
		t.Fatalf("OnTimer log %s, want %s", got, want)
	}
}

// TestFinalWatermarkFlushesOnEOF: a timer far beyond any emitted
// watermark still fires when the finite stream ends.
func TestFinalWatermarkFlushesOnEOF(t *testing.T) {
	log := runProbe(t, map[string][]wmAction{
		"src": {tupAt(1)},
	}, 1, graph.Shuffle, []int64{1 << 40})
	assertLog(t, log[0], sprintf("timer:%d", int64(1<<40)), "wm:max")
}
