package fuse

import (
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"briskstream/internal/apps"
	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
	"briskstream/internal/graph"
	"briskstream/internal/model"
	"briskstream/internal/numa"
	"briskstream/internal/plan"
	"briskstream/internal/profile"
	"briskstream/internal/tuple"
)

func TestChainsOnWC(t *testing.T) {
	wc := apps.WordCount()
	chains := Chains(wc.Graph)
	want := map[Pair]bool{
		{Producer: "parser", Consumer: "splitter"}: true,
		{Producer: "counter", Consumer: "sink"}:    true,
	}
	if len(chains) != len(want) {
		t.Fatalf("chains = %v, want %v", chains, want)
	}
	for _, c := range chains {
		if !want[c] {
			t.Errorf("unexpected chain %v", c)
		}
	}
	// splitter->counter is fields-grouped and must NOT be fusable.
	for _, c := range chains {
		if c.Producer == "splitter" {
			t.Error("fields-grouped edge offered for fusion")
		}
	}
}

func TestApplyComposesStats(t *testing.T) {
	wc := apps.WordCount()
	res, err := Apply(wc.Graph, wc.Stats, wc.Operators, []Pair{{Producer: "parser", Consumer: "splitter"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.Len() != wc.Graph.Len()-1 {
		t.Errorf("fused graph has %d nodes, want %d", res.Graph.Len(), wc.Graph.Len()-1)
	}
	fn := res.FusedName[Pair{Producer: "parser", Consumer: "splitter"}]
	if fn != "parser+splitter" {
		t.Fatalf("fused name = %q", fn)
	}
	st := res.Stats[fn]
	// Te' = Te_parser + sel_parser x Te_splitter = 350 + 1 x 1612.8.
	if math.Abs(st.Te-(350+1612.8)) > 1e-9 {
		t.Errorf("fused Te = %v", st.Te)
	}
	// sel' = 1 x 10.
	if st.Selectivity["default"] != 10 {
		t.Errorf("fused selectivity = %v", st.Selectivity)
	}
	// N' = parser's input size.
	if st.N != wc.Stats["parser"].N {
		t.Errorf("fused N = %v", st.N)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyRejections(t *testing.T) {
	wc := apps.WordCount()
	if _, err := Apply(wc.Graph, wc.Stats, wc.Operators, nil); err == nil {
		t.Error("empty pair list accepted")
	}
	// Fields edge.
	if _, err := Apply(wc.Graph, wc.Stats, wc.Operators, []Pair{{Producer: "splitter", Consumer: "counter"}}); err == nil {
		t.Error("fields-grouped fusion accepted")
	}
	// Spout.
	if _, err := Apply(wc.Graph, wc.Stats, wc.Operators, []Pair{{Producer: "spout", Consumer: "parser"}}); err == nil {
		t.Error("spout fusion accepted")
	}
	// Overlapping pairs: parser+splitter twice.
	p := Pair{Producer: "parser", Consumer: "splitter"}
	if _, err := Apply(wc.Graph, wc.Stats, wc.Operators, []Pair{p, p}); err == nil {
		t.Error("overlapping pairs accepted")
	}
}

// TestFusedEngineRunEquivalent: fusing WC's stages preserves the
// pipeline's selectivity — the counting stage still receives ten words
// per input sentence in both shapes. (The counter aggregates windows,
// so the sink's tuple count reflects window closes, not words; the
// words-per-sentence invariant is observed at the counter's input.)
func TestFusedEngineRunEquivalent(t *testing.T) {
	wc := apps.WordCount()
	res, err := Apply(wc.Graph, wc.Stats, wc.Operators,
		[]Pair{{Producer: "parser", Consumer: "splitter"}, {Producer: "counter", Consumer: "sink"}})
	if err != nil {
		t.Fatal(err)
	}

	count := func(app *engine.Topology, counterOp string) uint64 {
		e, err := engine.New(*app, engine.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run(150 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Errors) != 0 {
			t.Fatalf("errors: %v", r.Errors)
		}
		if r.Processed["spout"] == 0 {
			t.Fatal("no input generated")
		}
		if r.SinkTuples == 0 {
			t.Fatal("no windows reached the sink")
		}
		// Words per sentence must be ~10 in both shapes.
		return r.Processed[counterOp] / r.Processed["spout"]
	}

	plainRatio := count(&engine.Topology{App: wc.Graph, Spouts: wc.Spouts, Operators: wc.Operators}, "counter")
	fusedRatio := count(&engine.Topology{App: res.Graph, Spouts: wc.Spouts, Operators: res.Operators}, "counter+sink")
	// Both runs drain asynchronously, so compare the words-per-sentence
	// ratio (selectivity), which is deterministic in both shapes.
	if plainRatio < 9 || plainRatio > 10 {
		t.Errorf("plain words-per-sentence = %d, want ~10", plainRatio)
	}
	if fusedRatio < 9 || fusedRatio > 10 {
		t.Errorf("fused words-per-sentence = %d, want ~10", fusedRatio)
	}
}

// TestFusionTradeOff exercises both sides of the fusion trade-off
// (communication saved vs pipeline parallelism lost) under a forced
// round-robin remote placement:
//
//   - a communication-dominated chain (cheap consumer, fat tuples) must
//     get FASTER when fused (the remote fetch disappears);
//   - WC's parser+splitter (cheap communication, both operators busy)
//     must get SLOWER when fused (serializing them loses a core).
func TestFusionTradeOff(t *testing.T) {
	m := numa.Synthetic("fusion", 4, 8, 50, 300, 600, 50*numa.GB, 10*numa.GB, 5*numa.GB)

	evalRR := func(app *graph.Graph, st profile.Set) float64 {
		eg, err := plan.Build(app, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := plan.NewPlacement()
		for i, v := range eg.Vertices {
			p.Place(v.ID, numa.SocketID(i%m.Sockets))
		}
		ev, err := model.Evaluate(eg, p, &model.Config{Machine: m, Stats: st, Ingress: model.Saturated}, model.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ev.Throughput
	}

	t.Run("communication-dominated chain wins", func(t *testing.T) {
		g := graph.New("fat")
		g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
		g.AddNode(&graph.Node{Name: "heavy", Selectivity: map[string]float64{"default": 1}})
		g.AddNode(&graph.Node{Name: "light", Selectivity: map[string]float64{"default": 1}})
		g.AddNode(&graph.Node{Name: "sink", IsSink: true})
		g.AddEdge(graph.Edge{From: "spout", To: "heavy", Stream: "default"})
		g.AddEdge(graph.Edge{From: "heavy", To: "light", Stream: "default"})
		g.AddEdge(graph.Edge{From: "light", To: "sink", Stream: "default"})
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		// light is trivial compute but fetches 2 KB tuples: remote it
		// costs 32 cache lines x 300 ns = 9600 ns per tuple.
		st := profile.Set{
			"spout": {Te: 400, M: 64, N: 64, Selectivity: map[string]float64{"default": 1}},
			"heavy": {Te: 1000, M: 64, N: 64, Selectivity: map[string]float64{"default": 1}},
			"light": {Te: 100, M: 64, N: 2048, Selectivity: map[string]float64{"default": 1}},
			"sink":  {Te: 100, M: 32, N: 64, Selectivity: map[string]float64{}},
		}
		pass := func() engine.Operator {
			return engine.OperatorFunc(func(c engine.Collector, tp *tuple.Tuple) error {
				out := c.Borrow()
				out.CopyValuesFrom(tp)
				c.Send(out)
				return nil
			})
		}
		ops := map[string]func() engine.Operator{"heavy": pass, "light": pass, "sink": pass}
		res, err := Apply(g, st, ops, []Pair{{Producer: "heavy", Consumer: "light"}})
		if err != nil {
			t.Fatal(err)
		}
		plain := evalRR(g, st)
		fused := evalRR(res.Graph, res.Stats)
		if fused <= plain {
			t.Errorf("communication-dominated fusion should win: fused %v <= plain %v", fused, plain)
		}
	})

	t.Run("compute-dominated chain loses", func(t *testing.T) {
		wc := apps.WordCount()
		res, err := Apply(wc.Graph, wc.Stats, wc.Operators, []Pair{{Producer: "parser", Consumer: "splitter"}})
		if err != nil {
			t.Fatal(err)
		}
		plain := evalRR(wc.Graph, wc.Stats)
		fused := evalRR(res.Graph, res.Stats)
		if fused >= plain {
			t.Errorf("compute-dominated fusion should lose pipeline parallelism: fused %v >= plain %v", fused, plain)
		}
	})
}

// statefulCounter is a minimal Snapshotter operator for fusion tests.
type statefulCounter struct {
	n int64
}

func (s *statefulCounter) Process(c engine.Collector, t *tuple.Tuple) error {
	s.n++
	out := c.Borrow()
	out.CopyValuesFrom(t)
	c.Send(out)
	return nil
}

func (s *statefulCounter) Snapshot(enc *checkpoint.Encoder) error {
	enc.Int64(s.n)
	return nil
}

func (s *statefulCounter) Restore(dec *checkpoint.Decoder) error {
	s.n = dec.Int64()
	return dec.Err()
}

// A fused pair must checkpoint like its unfused form: stateful members'
// snapshots are framed through the wrapper, stateless members are
// skipped, and restore rebuilds exactly the members that saved state.
func TestFusedOpForwardsSnapshotter(t *testing.T) {
	stateless := func() engine.Operator {
		return engine.OperatorFunc(func(c engine.Collector, tp *tuple.Tuple) error {
			out := c.Borrow()
			out.CopyValuesFrom(tp)
			c.Send(out)
			return nil
		})
	}
	u := &statefulCounter{n: 7}
	v := &statefulCounter{n: 40}
	fused := Compose(func() engine.Operator { return u }, func() engine.Operator { return v })()
	snapper, ok := fused.(checkpoint.Snapshotter)
	if !ok {
		t.Fatal("fusedOp does not forward checkpoint.Snapshotter: fused stateful operators would checkpoint as stateless")
	}
	enc := checkpoint.NewEncoder()
	if err := snapper.Snapshot(enc); err != nil {
		t.Fatal(err)
	}
	u2, v2 := &statefulCounter{}, &statefulCounter{}
	fused2 := Compose(func() engine.Operator { return u2 }, func() engine.Operator { return v2 })()
	if err := fused2.(checkpoint.Snapshotter).Restore(checkpoint.NewDecoder(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	if u2.n != 7 || v2.n != 40 {
		t.Fatalf("restored members = (%d, %d), want (7, 40)", u2.n, v2.n)
	}
	// Mixed pair: only the stateful member's state is framed.
	w := &statefulCounter{n: 3}
	mixed := Compose(stateless, func() engine.Operator { return w })()
	enc2 := checkpoint.NewEncoder()
	if err := mixed.(checkpoint.Snapshotter).Snapshot(enc2); err != nil {
		t.Fatal(err)
	}
	w2 := &statefulCounter{}
	mixed2 := Compose(stateless, func() engine.Operator { return w2 })()
	if err := mixed2.(checkpoint.Snapshotter).Restore(checkpoint.NewDecoder(enc2.Bytes())); err != nil {
		t.Fatal(err)
	}
	if w2.n != 3 {
		t.Fatalf("mixed restore = %d, want 3", w2.n)
	}
}

// sendThenBorrow forwards its input, then borrows a row for a second
// output (the input's value plus shift). Reusing the input it just sent
// as that scratch row would corrupt both outputs, so it fails instead.
func sendThenBorrow(shift int64) func() engine.Operator {
	return func() engine.Operator {
		return engine.OperatorFunc(func(c engine.Collector, in *tuple.Tuple) error {
			v := in.Int(0)
			c.Send(in)
			out := c.Borrow()
			if out == in {
				return fmt.Errorf("row %d: Borrow after Send handed back the input", v)
			}
			out.AppendInt(v + shift)
			c.Send(out)
			return nil
		})
	}
}

// TestFusedPairSendInputThenBorrow: inside a fused pair both members
// may Send their own input and Borrow afterwards, on every row of a
// multi-row batch, without either Borrow handing back the row just
// sent — the adapter's input row for the producer, a row of the pair's
// pool for the consumer.
func TestFusedPairSendInputThenBorrow(t *testing.T) {
	const n = 2000
	g := graph.New("fused-send-input")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "pair", Selectivity: map[string]float64{"default": 4}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "pair", Stream: "default"})
	g.AddEdge(graph.Edge{From: "pair", To: "sink", Stream: "default"})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var next, sum int64
	e, err := engine.New(engine.Topology{
		App: g,
		Spouts: map[string]func() engine.Spout{"spout": func() engine.Spout {
			return engine.SpoutFunc(func(c engine.Collector) error {
				if next == n {
					return io.EOF
				}
				out := c.Borrow()
				out.AppendInt(next)
				c.Send(out)
				next++
				return nil
			})
		}},
		Operators: map[string]func() engine.Operator{
			"pair": Compose(sendThenBorrow(n), sendThenBorrow(2*n)),
			"sink": func() engine.Operator {
				return engine.OperatorFunc(func(_ engine.Collector, in *tuple.Tuple) error { sum += in.Int(0); return nil })
			},
		},
	}, engine.DefaultConfig())
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
	// Each input v leaves v, v+2n (the consumer on the forwarded input)
	// and v+n, v+3n (the consumer on the producer's borrowed row).
	if want := 4*int64(n)*(n-1)/2 + 6*n*n; res.SinkTuples != 4*n || sum != want {
		t.Fatalf("sink got %d tuples summing to %d, want %d summing to %d", res.SinkTuples, sum, 4*n, want)
	}
}

// tripler emits 3v, 3v+1 and 3v+2 for each input v: the first and last
// through Out, the middle one through Send.
type tripler struct{ one engine.OneRow }

func (o *tripler) Process(c engine.Collector, t *tuple.Tuple) error { return o.one.Process(o, c, t) }

func (o *tripler) ProcessBatch(c engine.Collector, b *tuple.Batch) error {
	for r := 0; r < b.Len(); r++ {
		v := 3 * b.Int(0, r)
		put := func(v int64) {
			out := c.Out(tuple.DefaultStreamID)
			out.PutInt(v)
			out.EndRowFrom(b, r)
		}
		put(v)
		out := c.Borrow()
		out.AppendInt(v + 1)
		b.StampMeta(r, out)
		c.Send(out)
		put(v + 2)
	}
	return nil
}

// TestFusedPairOutKeepsOrder: rows a fused producer puts through Out
// reach the consumer in emission order among its Send rows, and none is
// left behind when the producer's call returns.
func TestFusedPairOutKeepsOrder(t *testing.T) {
	const n = 1000
	g := graph.New("fused-out")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "pair", Selectivity: map[string]float64{"default": 9}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "pair", Stream: "default"})
	g.AddEdge(graph.Edge{From: "pair", To: "sink", Stream: "default"})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var next, want int64
	var bad error
	e, err := engine.New(engine.Topology{
		App: g,
		Spouts: map[string]func() engine.Spout{"spout": func() engine.Spout {
			return engine.SpoutFunc(func(c engine.Collector) error {
				if next == n {
					return io.EOF
				}
				out := c.Borrow()
				out.AppendInt(next)
				c.Send(out)
				next++
				return nil
			})
		}},
		Operators: map[string]func() engine.Operator{
			"pair": Compose(func() engine.Operator { return &tripler{} }, func() engine.Operator { return &tripler{} }),
			"sink": func() engine.Operator {
				return engine.OperatorFunc(func(_ engine.Collector, in *tuple.Tuple) error {
					if v := in.Int(0); v != want && bad == nil {
						bad = fmt.Errorf("sink got %d, want %d", v, want)
					}
					want++
					return nil
				})
			},
		},
	}, engine.DefaultConfig())
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
	if bad != nil || want != 9*n {
		t.Fatalf("%v; sink got %d rows, want %d", bad, want, 9*n)
	}
}
