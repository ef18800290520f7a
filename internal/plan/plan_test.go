package plan

import (
	"math"
	"math/rand"
	"testing"

	"briskstream/internal/graph"
	"briskstream/internal/numa"
)

func wcGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("wc")
	add := func(n *graph.Node) {
		t.Helper()
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	add(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	add(&graph.Node{Name: "parser", Selectivity: map[string]float64{"default": 1}})
	add(&graph.Node{Name: "splitter", Selectivity: map[string]float64{"default": 10}})
	add(&graph.Node{Name: "counter", Selectivity: map[string]float64{"default": 1}})
	add(&graph.Node{Name: "sink", IsSink: true})
	edges := []graph.Edge{
		{From: "spout", To: "parser", Stream: "default"},
		{From: "parser", To: "splitter", Stream: "default"},
		{From: "splitter", To: "counter", Stream: "default", Partitioning: graph.Fields},
		{From: "counter", To: "sink", Stream: "default"},
	}
	for _, e := range edges {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildNoReplication(t *testing.T) {
	g := wcGraph(t)
	eg, err := Build(g, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(eg.Vertices) != 5 {
		t.Fatalf("vertices = %d, want 5", len(eg.Vertices))
	}
	if eg.TotalReplicas() != 5 {
		t.Fatalf("replicas = %d, want 5", eg.TotalReplicas())
	}
	for _, v := range eg.Vertices {
		if v.Count != 1 {
			t.Errorf("%s count = %d", v.Label(), v.Count)
		}
	}
}

func TestBuildWithReplication(t *testing.T) {
	g := wcGraph(t)
	repl := map[string]int{"parser": 2, "splitter": 3, "counter": 3}
	eg, err := Build(g, repl, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 2 + 3 + 3 + 1 = 10 vertices at ratio 1.
	if len(eg.Vertices) != 10 {
		t.Fatalf("vertices = %d, want 10", len(eg.Vertices))
	}
	// Shuffle edge spout->parser: shares across 2 parser replicas sum to 1.
	spout := eg.OfOp("spout")[0]
	var sum float64
	for _, e := range eg.Out(spout.ID) {
		sum += e.Share
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("spout out-share sum = %v, want 1", sum)
	}
	// Each splitter replica connects to all 3 counter replicas.
	for _, sp := range eg.OfOp("splitter") {
		if got := len(eg.Out(sp.ID)); got != 3 {
			t.Errorf("splitter out-degree = %d, want 3", got)
		}
	}
}

func TestBuildCompression(t *testing.T) {
	g := wcGraph(t)
	repl := map[string]int{"splitter": 12}
	eg, err := Build(g, repl, 5)
	if err != nil {
		t.Fatal(err)
	}
	groups := eg.OfOp("splitter")
	// ceil(12/5) = 3 groups with counts 4,4,4.
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	total := 0
	for _, v := range groups {
		total += v.Count
		if v.Count < 1 {
			t.Errorf("group %s has count %d", v.Label(), v.Count)
		}
	}
	if total != 12 {
		t.Errorf("fused replicas = %d, want 12", total)
	}
	if eg.TotalReplicas() != 12+4 {
		t.Errorf("TotalReplicas = %d", eg.TotalReplicas())
	}
	// Shares still sum to 1 for shuffle/fields edges into splitter groups.
	parser := eg.OfOp("parser")[0]
	var sum float64
	for _, e := range eg.Out(parser.ID) {
		sum += e.Share
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("share sum = %v, want 1", sum)
	}
}

func TestBuildRejectsBadRatio(t *testing.T) {
	if _, err := Build(wcGraph(t), nil, 0); err == nil {
		t.Error("ratio 0 accepted")
	}
}

// TestBuildRejectsCycle: Build derives the topological order, so a
// cyclic logical graph is an error from Build, not a panic later.
func TestBuildRejectsCycle(t *testing.T) {
	g := graph.New("cycle")
	for _, name := range []string{"a", "b", "c"} {
		if err := g.AddNode(&graph.Node{Name: name, IsSpout: name == "a"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []graph.Edge{{From: "a", To: "b"}, {From: "b", To: "c"}, {From: "c", To: "b"}} {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Build(g, nil, 1); err == nil {
		t.Error("cyclic graph accepted")
	}
}

func TestBroadcastAndGlobalShares(t *testing.T) {
	g := graph.New("bg")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "bcast", Selectivity: map[string]float64{"default": 1}})
	g.AddNode(&graph.Node{Name: "sink", IsSink: true})
	g.AddEdge(graph.Edge{From: "spout", To: "bcast", Stream: "default", Partitioning: graph.Broadcast})
	g.AddEdge(graph.Edge{From: "bcast", To: "sink", Stream: "default", Partitioning: graph.Global})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	eg, err := Build(g, map[string]int{"bcast": 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	spout := eg.OfOp("spout")[0]
	// Broadcast: every replica receives the full stream; shares are 1 each.
	var sum float64
	for _, e := range eg.Out(spout.ID) {
		if e.Share != 1 {
			t.Errorf("broadcast share = %v, want 1", e.Share)
		}
		sum += e.Share
	}
	if sum != 3 {
		t.Errorf("broadcast total = %v, want 3 (replicated delivery)", sum)
	}
	// Global: each bcast vertex sends everything to the single sink vertex.
	for _, b := range eg.OfOp("bcast") {
		out := eg.Out(b.ID)
		if len(out) != 1 || out[0].Share != 1 {
			t.Errorf("global edge = %+v", out)
		}
	}
}

func TestTopoOrderAndPairs(t *testing.T) {
	eg, err := Build(wcGraph(t), map[string]int{"parser": 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	order := eg.TopoOrder()
	if len(order) != len(eg.Vertices) {
		t.Fatalf("order covers %d of %d vertices", len(order), len(eg.Vertices))
	}
	pos := map[VertexID]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, v := range eg.Vertices {
		for _, e := range eg.Out(v.ID) {
			if pos[e.From] >= pos[e.To] {
				t.Errorf("edge %d->%d violates topo order", e.From, e.To)
			}
		}
	}
	pairs := eg.Pairs()
	// spout->parser(2) + parser(2)->splitter + splitter->counter + counter->sink = 2+2+1+1 = 6.
	if len(pairs) != 6 {
		t.Errorf("pairs = %d, want 6", len(pairs))
	}
}

func TestPlacement(t *testing.T) {
	eg, _ := Build(wcGraph(t), nil, 1)
	m := numa.ServerA()
	p := NewPlacement()
	if p.Complete(eg) {
		t.Error("empty placement complete")
	}
	for i, v := range eg.Vertices {
		p.Place(v.ID, numa.SocketID(i%2))
	}
	if !p.Complete(eg) {
		t.Error("full placement not complete")
	}
	if err := p.Validate(eg, m, true); err != nil {
		t.Fatal(err)
	}
	s, ok := p.SocketOf(eg.Vertices[1].ID)
	if !ok || s != 1 {
		t.Errorf("SocketOf = %v, %v", s, ok)
	}
	c := p.Clone()
	c.Place(eg.Vertices[0].ID, 5)
	if got, _ := p.SocketOf(eg.Vertices[0].ID); got == 5 {
		t.Error("Clone aliases parent")
	}
	p.Unplace(eg.Vertices[0].ID)
	p.Unplace(eg.Vertices[0].ID) // unplacing twice counts once
	if got := p.Placed(); got != len(eg.Vertices)-1 {
		t.Errorf("Placed = %d after one Unplace, want %d", got, len(eg.Vertices)-1)
	}
	if _, ok := p.SocketOf(eg.Vertices[0].ID); ok {
		t.Error("unplaced vertex still has a socket")
	}
	if err := p.Validate(eg, m, true); err == nil {
		t.Error("incomplete placement accepted as complete")
	}
	if err := p.Validate(eg, m, false); err != nil {
		t.Errorf("partial validation failed: %v", err)
	}
}

func TestPlacementValidateRejects(t *testing.T) {
	eg, _ := Build(wcGraph(t), nil, 1)
	m := numa.ServerA()
	p := NewPlacement()
	p.Place(VertexID(99), 0)
	if err := p.Validate(eg, m, false); err == nil {
		t.Error("unknown vertex accepted")
	}
	p2 := NewPlacement()
	p2.Place(eg.Vertices[0].ID, numa.SocketID(99))
	if err := p2.Validate(eg, m, false); err == nil {
		t.Error("invalid socket accepted")
	}
}

func TestCollocateAll(t *testing.T) {
	eg, _ := Build(wcGraph(t), map[string]int{"counter": 4}, 1)
	p := CollocateAll(eg)
	if !p.Complete(eg) {
		t.Fatal("CollocateAll incomplete")
	}
	for _, v := range eg.Vertices {
		if s, _ := p.SocketOf(v.ID); s != 0 {
			t.Errorf("%s on socket %d", v.Label(), s)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	eg, _ := Build(wcGraph(t), nil, 1)
	pl := &Plan{Graph: eg, Machine: numa.ServerA(), Placement: CollocateAll(eg)}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&Plan{}).Validate(); err == nil {
		t.Error("empty plan accepted")
	}
}

// Property: for random replication configurations and ratios, fused counts
// are positive, sum to the replication level, and shuffle shares sum to 1.
func TestBuildInvariantsRandom(t *testing.T) {
	g := wcGraph(t)
	rng := rand.New(rand.NewSource(11))
	ops := []string{"parser", "splitter", "counter"}
	for trial := 0; trial < 100; trial++ {
		repl := map[string]int{}
		for _, op := range ops {
			repl[op] = 1 + rng.Intn(40)
		}
		ratio := 1 + rng.Intn(8)
		eg, err := Build(g, repl, ratio)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			total := 0
			for _, v := range eg.OfOp(op) {
				if v.Count < 1 {
					t.Fatalf("trial %d: %s count %d", trial, v.Label(), v.Count)
				}
				total += v.Count
			}
			if total != repl[op] {
				t.Fatalf("trial %d: %s fused %d != repl %d", trial, op, total, repl[op])
			}
		}
		for _, v := range eg.Vertices {
			if v.Sink {
				continue
			}
			byStream := map[string]float64{}
			for _, e := range eg.Out(v.ID) {
				byStream[e.Stream] += e.Share
			}
			for s, sum := range byStream {
				if math.Abs(sum-1) > 1e-9 {
					t.Fatalf("trial %d: %s stream %s share sum %v", trial, v.Label(), s, sum)
				}
			}
		}
	}
}
