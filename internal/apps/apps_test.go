package apps

import (
	"bytes"
	"testing"
	"time"

	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
	"briskstream/internal/model"
	"briskstream/internal/numa"
	"briskstream/internal/plan"
	"briskstream/internal/tuple"
)

func TestAllAppsValidate(t *testing.T) {
	apps := All()
	if len(apps) != 4 {
		t.Fatalf("expected 4 applications, got %d", len(apps))
	}
	names := map[string]bool{}
	for _, a := range apps {
		names[a.Name] = true
		if err := a.Graph.Validate(); err != nil {
			t.Errorf("%s graph invalid: %v", a.Name, err)
		}
		if err := a.Stats.Validate(); err != nil {
			t.Errorf("%s stats invalid: %v", a.Name, err)
		}
		// Every operator in the graph has stats and an implementation.
		for _, n := range a.Graph.Nodes() {
			if _, ok := a.Stats[n.Name]; !ok {
				t.Errorf("%s: no stats for %q", a.Name, n.Name)
			}
			if n.IsSpout {
				if _, ok := a.Spouts[n.Name]; !ok {
					t.Errorf("%s: no spout impl for %q", a.Name, n.Name)
				}
			} else if _, ok := a.Operators[n.Name]; !ok {
				t.Errorf("%s: no operator impl for %q", a.Name, n.Name)
			}
		}
		// Declared graph selectivity must match profiled stats
		// selectivity (they are the same source of truth here).
		for _, n := range a.Graph.Nodes() {
			for stream, sel := range n.Selectivity {
				if got := a.Stats[n.Name].Selectivity[stream]; got != sel {
					t.Errorf("%s %s stream %s: graph sel %v != stats sel %v",
						a.Name, n.Name, stream, sel, got)
				}
			}
		}
	}
	for _, want := range []string{"WC", "FD", "SD", "LR"} {
		if !names[want] {
			t.Errorf("missing app %s", want)
		}
	}
	if ByName("WC") == nil || ByName("nope") != nil {
		t.Error("ByName lookup broken")
	}
}

func TestWCTopologyShape(t *testing.T) {
	wc := WordCount()
	if wc.Graph.Len() != 5 {
		t.Errorf("WC has %d operators, want 5", wc.Graph.Len())
	}
	order, err := wc.Graph.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"spout", "parser", "splitter", "counter", "sink"}
	for i, op := range want {
		if order[i] != op {
			t.Errorf("topo[%d] = %s, want %s", i, order[i], op)
		}
	}
	if wc.Stats["splitter"].Te != 1612.8 || wc.Stats["counter"].Te != 612.3 {
		t.Error("WC splitter/counter Te must match the paper's Table 3 local values")
	}
}

func TestLRTopologyShape(t *testing.T) {
	lr := LinearRoad()
	if lr.Graph.Len() != 12 {
		t.Errorf("LR has %d operators, want 12", lr.Graph.Len())
	}
	// toll_notify consumes four streams (Table 8).
	if got := len(lr.Graph.In("toll_notify")); got != 4 {
		t.Errorf("toll_notify has %d input edges, want 4", got)
	}
	if got := len(lr.Graph.Producers("toll_notify")); got != 4 {
		t.Errorf("toll_notify has %d distinct producers, want 4", got)
	}
	// Four operators feed the sink.
	if got := len(lr.Graph.Producers("sink")); got != 4 {
		t.Errorf("sink has %d producers, want 4", got)
	}
}

// runApp executes an app on the real engine for a bounded duration.
func runApp(t *testing.T, a *App, d time.Duration) *engine.Result {
	t.Helper()
	topo := engine.Topology{
		App:       a.Graph,
		Spouts:    a.Spouts,
		Operators: a.Operators,
	}
	cfg := engine.DefaultConfig()
	cfg.BatchSize = 16
	cfg.QueueCapacity = 16
	e, err := engine.New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("%s: runtime errors: %v", a.Name, res.Errors)
	}
	return res
}

func TestWCEndToEnd(t *testing.T) {
	res := runApp(t, WordCount(), 150*time.Millisecond)
	if res.SinkTuples == 0 {
		t.Fatal("WC produced no output")
	}
	// Selectivity: sink receives ~10x the parsed sentences.
	sentences := res.Processed["splitter"]
	if sentences == 0 {
		t.Fatal("splitter processed nothing")
	}
	ratio := float64(res.Processed["counter"]) / float64(sentences)
	if ratio < 9 || ratio > 11 {
		t.Errorf("counter/splitter ratio = %v, want ~10", ratio)
	}
}

func TestFDEndToEnd(t *testing.T) {
	res := runApp(t, FraudDetection(), 150*time.Millisecond)
	if res.SinkTuples == 0 {
		t.Fatal("FD produced no output")
	}
	// Selectivity 1 end to end: sink count tracks predict count within
	// in-flight slack.
	if res.Processed["predict"] == 0 {
		t.Fatal("predict processed nothing")
	}
}

// TestFDSnapshotFramingUnchanged: Predict's state keys on symbols, but
// its checkpoint bytes are still what a map[string]int64 in name order
// produced — so checkpoints written before the change restore, and
// re-snapshot byte-equal.
func TestFDSnapshotFramingUnchanged(t *testing.T) {
	// Interned in an order that disagrees with name order.
	for _, name := range []string{"cust-zeta", "cust-alpha", "cust-mid"} {
		tuple.InternSym(name)
	}
	old := checkpoint.NewEncoder()
	checkpoint.SaveMapOrdered(old, map[string]int64{"cust-zeta": 3, "cust-alpha": 96, "cust-mid": 0},
		func(e *checkpoint.Encoder, k string) { e.String(k) },
		func(e *checkpoint.Encoder, v int64) { e.Int64(v) })

	p := newFDPredict()
	stale, _ := p.last.GetOrCreate(tuple.InternSym("stale"))
	*stale = 1
	if err := p.Restore(checkpoint.NewDecoder(old.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := p.last.Get(tuple.InternSym("cust-alpha")); p.last.Len() != 3 || got == nil || *got != 96 {
		t.Fatalf("restored %d entities, cust-alpha = %v", p.last.Len(), got)
	}
	again := checkpoint.NewEncoder()
	if err := p.Snapshot(again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), old.Bytes()) {
		t.Fatalf("re-snapshot differs from the string-keyed framing:\n got %x\nwant %x", again.Bytes(), old.Bytes())
	}
}

func TestSDEndToEnd(t *testing.T) {
	res := runApp(t, SpikeDetection(), 150*time.Millisecond)
	if res.SinkTuples == 0 {
		t.Fatal("SD produced no output")
	}
	if res.Processed["moving_avg"] == 0 || res.Processed["spike_detect"] == 0 {
		t.Fatal("SD middle operators idle")
	}
}

func TestLREndToEnd(t *testing.T) {
	res := runApp(t, LinearRoad(), 250*time.Millisecond)
	if res.SinkTuples == 0 {
		t.Fatal("LR produced no output")
	}
	for _, op := range []string{"dispatcher", "avg_speed", "las_avg_speed", "count_vehicle", "toll_notify"} {
		if res.Processed[op] == 0 {
			t.Errorf("LR operator %s idle", op)
		}
	}
	// The query path (rare): balance and daily queries must flow.
	if res.Processed["account_balance"] == 0 && res.Processed["daily_expen"] == 0 {
		t.Error("no historical queries processed; dispatcher routing may be broken")
	}
}

func TestLRReplicatedRun(t *testing.T) {
	a := LinearRoad()
	topo := engine.Topology{
		App:       a.Graph,
		Spouts:    a.Spouts,
		Operators: a.Operators,
		Replication: map[string]int{
			"avg_speed": 2, "count_vehicle": 2, "toll_notify": 2,
		},
	}
	cfg := engine.DefaultConfig()
	cfg.BatchSize = 16
	e, err := engine.New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if res.SinkTuples == 0 {
		t.Fatal("replicated LR produced no output")
	}
}

func TestBenchmarksIncludeTrendingWords(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 5 {
		t.Fatalf("Benchmarks() has %d apps, want 5 (paper's four + TW)", len(bs))
	}
	tw := ByName("TW")
	if tw == nil {
		t.Fatal("ByName(TW) = nil")
	}
	if err := tw.Graph.Validate(); err != nil {
		t.Errorf("TW graph invalid: %v", err)
	}
	if err := tw.Stats.Validate(); err != nil {
		t.Errorf("TW stats invalid: %v", err)
	}
	for _, n := range tw.Graph.Nodes() {
		if _, ok := tw.Stats[n.Name]; !ok {
			t.Errorf("TW: no stats for %q", n.Name)
		}
		if n.IsSpout {
			if _, ok := tw.Spouts[n.Name]; !ok {
				t.Errorf("TW: no spout impl for %q", n.Name)
			}
		} else if _, ok := tw.Operators[n.Name]; !ok {
			t.Errorf("TW: no operator impl for %q", n.Name)
		}
	}
}

func TestTWEndToEnd(t *testing.T) {
	res := runApp(t, TrendingWords(), 250*time.Millisecond)
	if res.SinkTuples == 0 {
		t.Fatal("TW produced no ranked output")
	}
	if res.Processed["sessionize"] == 0 {
		t.Fatal("sessionize processed nothing")
	}
	if res.Processed["rank"] == 0 {
		t.Fatal("rank received no closed sessions; session windows never fired")
	}
	// Ranked output arrives in batches of at most twK per rank window.
	if res.SinkTuples > res.Processed["rank"]*twK {
		t.Errorf("sink received %d tuples from %d sessions; top-K should bound it", res.SinkTuples, res.Processed["rank"])
	}
}

func TestTWReplicatedRun(t *testing.T) {
	a := TrendingWords()
	topo := engine.Topology{
		App:       a.Graph,
		Spouts:    a.Spouts,
		Operators: a.Operators,
		// Sessionize replicates (fields-partitioned by word); rank is
		// global so extra replicas would idle, keep it at 1.
		Replication: map[string]int{"spout": 2, "sessionize": 2},
	}
	e, err := engine.New(topo, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(250 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if res.SinkTuples == 0 {
		t.Fatal("replicated TW produced no output")
	}
}

func TestAppsModelEvaluable(t *testing.T) {
	// Every app must evaluate under the model on both paper servers.
	for _, a := range All() {
		for _, m := range []*numa.Machine{numa.ServerA(), numa.ServerB()} {
			eg, err := plan.Build(a.Graph, nil, 1)
			if err != nil {
				t.Fatalf("%s: %v", a.Name, err)
			}
			cfg := &model.Config{Machine: m, Stats: a.Stats, Ingress: model.Saturated}
			r, err := model.Evaluate(eg, plan.CollocateAll(eg), cfg, model.Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name, m.Name, err)
			}
			if r.Throughput <= 0 {
				t.Errorf("%s on %s: zero modelled throughput", a.Name, m.Name)
			}
		}
	}
}

func TestSpoutsAreDeterministicPerReplica(t *testing.T) {
	// Two spout instances from the same app must differ (distinct
	// seeds), but runs are reproducible overall via seeded sources.
	wc := WordCount()
	s1 := wc.Spouts["spout"]()
	s2 := wc.Spouts["spout"]()
	var got1, got2 []string
	c1 := &captureCollector{out: &got1}
	c2 := &captureCollector{out: &got2}
	for i := 0; i < 5; i++ {
		s1.Next(c1)
		s2.Next(c2)
	}
	same := true
	for i := range got1 {
		if got1[i] != got2[i] {
			same = false
		}
	}
	if same {
		t.Error("two spout replicas emitted identical streams")
	}
}

// captureCollector records the first string field of every emission;
// the spouts it serves emit through Send, so Out's rows are dropped.
type captureCollector struct {
	engine.RowOut
	out *[]string
}

func (c *captureCollector) Borrow() *tuple.Tuple { return tuple.New() }

func (c *captureCollector) EmitWatermark(wm int64) {}

func (c *captureCollector) Send(t *tuple.Tuple) {
	*c.out = append(*c.out, t.Str(0))
}
