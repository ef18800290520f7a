package engine

// Regression tests for engine reuse: Run used to leave the sink
// counter, latency histogram and per-task processed counters populated
// (double-counting a second run) and the task queues closed (so a
// second run could not transfer a single tuple).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"briskstream/internal/graph"
	"briskstream/internal/tuple"
)

// rewindingSpout emits n tuples, returns io.EOF, and rewinds so the
// next Run replays the same stream.
func rewindingSpout(n int) func() Spout {
	return func() Spout {
		i := 0
		return SpoutFunc(func(c Collector) error {
			if i >= n {
				i = 0
				return ioEOF
			}
			sendInt(c, int64(i))
			i++
			return nil
		})
	}
}

func TestRunTwiceDoesNotDoubleCount(t *testing.T) {
	noGoroutineLeak(t)
	topo := Topology{
		App:       pipelineGraph(t),
		Spouts:    map[string]func() Spout{"spout": rewindingSpout(1000)},
		Operators: map[string]func() Operator{"double": doubler, "sink": sinkOp},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 3; run++ {
		res, err := e.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Errors) != 0 {
			t.Fatalf("run %d errors: %v", run, res.Errors)
		}
		if res.SinkTuples != 2000 {
			t.Fatalf("run %d: sink tuples = %d, want 2000 (no carry-over between runs)", run, res.SinkTuples)
		}
		if res.Processed["spout"] != 1000 || res.Processed["double"] != 1000 {
			t.Fatalf("run %d: processed = %v, want 1000 each", run, res.Processed)
		}
		if res.QueuePuts == 0 || res.QueueGets == 0 {
			t.Fatalf("run %d: queue stats empty", run)
		}
		if res.QueuePuts != res.QueueGets {
			t.Fatalf("run %d: per-run queue stats unbalanced: puts %d gets %d", run, res.QueuePuts, res.QueueGets)
		}
	}
}

func TestRunTwiceResetsLatency(t *testing.T) {
	noGoroutineLeak(t)
	topo := Topology{
		App:       pipelineGraph(t),
		Spouts:    map[string]func() Spout{"spout": rewindingSpout(2000)},
		Operators: map[string]func() Operator{"double": doubler, "sink": sinkOp},
	}
	cfg := DefaultConfig()
	cfg.LatencySampleEvery = 10
	e, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Latency.Count == 0 || r2.Latency.Count == 0 {
		t.Fatalf("latency not sampled: %d / %d", r1.Latency.Count, r2.Latency.Count)
	}
	if r2.Latency.Count > r1.Latency.Count*2 {
		t.Fatalf("second run accumulated first run's samples: %d then %d",
			r1.Latency.Count, r2.Latency.Count)
	}
}

// rerunSpout replays a watermark/tuple script. The test rewinds it (and
// flips it between spin-at-stopAt and run-to-EOF) between runs.
type rerunSpout struct {
	actions []wmAction
	i       int
	stopAt  int // spin (emit nothing, no EOF) once i reaches stopAt; -1 disables
}

func (s *rerunSpout) Next(c Collector) error {
	if s.stopAt >= 0 && s.i >= s.stopAt {
		return nil // spin: the duration bound kills this run
	}
	if s.i >= len(s.actions) {
		return ioEOF
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

// rerunProbe registers two event timers at the start of every run (the
// first tuples of a run arrive while the task watermark is still
// WatermarkMin) and logs every timer fire and watermark advance.
type rerunProbe struct {
	tm  *Timers
	mu  sync.Mutex
	log []string
}

func (p *rerunProbe) SetTimers(tm *Timers) { p.tm = tm }

func (p *rerunProbe) Process(c Collector, t *tuple.Tuple) error {
	if p.tm.Watermark() == WatermarkMin && t.Int(0) == 5 {
		p.tm.RegisterEvent(9)
		p.tm.RegisterEvent(25)
	}
	return nil
}

func (p *rerunProbe) OnTimer(c Collector, kind TimerKind, at int64) error {
	if kind == EventTimer {
		p.rec(fmt.Sprintf("timer:%d", at))
	}
	return nil
}

func (p *rerunProbe) OnWatermark(c Collector, wm int64) error {
	if wm == WatermarkMax {
		p.rec("wm:max")
	} else {
		p.rec(fmt.Sprintf("wm:%d", wm))
	}
	return nil
}

func (p *rerunProbe) rec(s string) {
	p.mu.Lock()
	p.log = append(p.log, s)
	p.mu.Unlock()
}

// TestRerunResetsTimersAndWatermarkCursors is the recovery-path hygiene
// regression: a killed run leaves a pending event timer (registered at
// 25, watermark only reached 17) and populated watermark cursors; the
// restarted runs must see fresh timers and cursors — a leaked timer
// fires a second time, leaked wmIn cursors suppress the
// rerun's watermark advances entirely.
func TestRerunResetsTimersAndWatermarkCursors(t *testing.T) {
	script := []wmAction{
		tupAt(5), wmAt(9), tupAt(17), wmAt(17), tupAt(30), wmAt(30),
	}
	g := graph.New("rerun")
	for _, n := range []*graph.Node{
		{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}},
		{Name: "probe", Selectivity: map[string]float64{"default": 1}},
		{Name: "sink", IsSink: true},
	} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(graph.Edge{From: "spout", To: "probe", Stream: "default"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(graph.Edge{From: "probe", To: "sink", Stream: "default"}); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	spout := &rerunSpout{actions: script, stopAt: 4} // stop past wm 17: timer 25 left pending
	probe := &rerunProbe{}
	topo := Topology{
		App:       g,
		Spouts:    map[string]func() Spout{"spout": func() Spout { return spout }},
		Operators: map[string]func() Operator{"probe": func() Operator { return probe }, "sink": sinkOp},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Run 1: killed by the duration bound with the timer at 25 pending.
	if _, err := e.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Runs 2 and 3: full script to EOF; each must produce the exact
	// fresh-engine log.
	want := "[timer:9 wm:9 wm:17 timer:25 wm:30 wm:max]"
	for run := 2; run <= 3; run++ {
		spout.stopAt = -1
		spout.i = 0
		probe.log = probe.log[:0]
		res, err := e.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Errors) != 0 {
			t.Fatalf("run %d errors: %v", run, res.Errors)
		}
		if got := fmt.Sprintf("%v", probe.log); got != want {
			t.Fatalf("run %d event log = %s, want %s (stale timer or watermark cursor)", run, got, want)
		}
	}
}

// TestRunTwiceShuffleCursorsReset: shuffle round-robin cursors must
// restart at their wiring-time phase each run, so a recovery replay
// distributes tuples exactly like the original run — otherwise a
// restored run's routing (and thus any replica-local state) diverges
// from the failure-free execution.
func TestRunTwiceShuffleCursorsReset(t *testing.T) {
	noGoroutineLeak(t)
	topo := Topology{
		App:       pipelineGraph(t),
		Spouts:    map[string]func() Spout{"spout": rewindingSpout(999)},
		Operators: map[string]func() Operator{"double": passthrough, "sink": sinkOp},
		Replication: map[string]int{
			"double": 3,
		},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	counts := func() []uint64 {
		out := []uint64{}
		for _, dt := range e.byOp["double"] {
			out = append(out, atomic.LoadUint64(&dt.processed))
		}
		return out
	}
	res1, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Errors) != 0 {
		t.Fatal(res1.Errors)
	}
	first := counts()
	for run := 2; run <= 3; run++ {
		res, err := e.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Errors) != 0 {
			t.Fatal(res.Errors)
		}
		if got := counts(); sprintf("%v", got) != sprintf("%v", first) {
			t.Fatalf("run %d shuffle distribution %v differs from run 1's %v (rr cursor leaked across runs)", run, got, first)
		}
	}
	// 999 tuples over 3 replicas starting at the wiring phase: exact
	// uniform split, same every run.
	for i, n := range first {
		if n != 333 {
			t.Fatalf("replica %d got %d tuples, want 333", i, n)
		}
	}
}

func TestRunTwiceDurationBounded(t *testing.T) {
	noGoroutineLeak(t)
	infinite := func() Spout {
		return SpoutFunc(func(c Collector) error {
			sendInt(c, 1)
			return nil
		})
	}
	topo := Topology{
		App:       pipelineGraph(t),
		Spouts:    map[string]func() Spout{"spout": infinite},
		Operators: map[string]func() Operator{"double": doubler, "sink": sinkOp},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		res, err := e.Run(50 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if res.SinkTuples == 0 {
			t.Fatalf("run %d moved no tuples (queues not reopened?)", run+1)
		}
	}
}
