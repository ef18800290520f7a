package model

import (
	"math"
	"testing"

	"briskstream/internal/graph"
	"briskstream/internal/numa"
	"briskstream/internal/plan"
	"briskstream/internal/profile"
)

// inFrom sums the rates arriving at v on its input edges from producer:
// InBy is aligned with eg.In(v), one entry per edge.
func inFrom(t *testing.T, eg *plan.ExecGraph, r *Result, v, producer plan.VertexID) float64 {
	t.Helper()
	in, inBy := eg.In(v), r.Rates[v].InBy
	if len(inBy) != len(in) {
		t.Fatalf("vertex %d: %d InBy entries for %d input edges", v, len(inBy), len(in))
	}
	var sum float64
	for i, e := range in {
		if e.From == producer {
			sum += inBy[i]
		}
	}
	return sum
}

// diamondGraph: spout fans out to two workers with different speeds that
// both feed one sink — exercises per-producer input decomposition ri(s).
func diamondGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("diamond")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"l": 0.5, "r": 0.5}}))
	must(g.AddNode(&graph.Node{Name: "fast", Selectivity: map[string]float64{"default": 1}}))
	must(g.AddNode(&graph.Node{Name: "slow", Selectivity: map[string]float64{"default": 1}}))
	must(g.AddNode(&graph.Node{Name: "sink", IsSink: true}))
	must(g.AddEdge(graph.Edge{From: "spout", To: "fast", Stream: "l"}))
	must(g.AddEdge(graph.Edge{From: "spout", To: "slow", Stream: "r"}))
	must(g.AddEdge(graph.Edge{From: "fast", To: "sink", Stream: "default"}))
	must(g.AddEdge(graph.Edge{From: "slow", To: "sink", Stream: "default"}))
	must(g.Validate())
	return g
}

func diamondStats() profile.Set {
	return profile.Set{
		"spout": {Te: 100, M: 64, N: 64, Selectivity: map[string]float64{"l": 0.5, "r": 0.5}},
		"fast":  {Te: 200, M: 64, N: 64, Selectivity: map[string]float64{"default": 1}},
		"slow":  {Te: 2000, M: 64, N: 64, Selectivity: map[string]float64{"default": 1}},
		"sink":  {Te: 100, M: 32, N: 64, Selectivity: map[string]float64{}},
	}
}

func TestPerProducerDecomposition(t *testing.T) {
	g := diamondGraph(t)
	eg, _ := plan.Build(g, nil, 1)
	m := numa.Synthetic("d", 4, 8, 50, 200, 400, 50*numa.GB, 10*numa.GB, 5*numa.GB)
	cfg := &Config{Machine: m, Stats: diamondStats(), Ingress: Saturated}
	r, err := Evaluate(eg, plan.CollocateAll(eg), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink := eg.OfOp("sink")[0].ID
	fast := eg.OfOp("fast")[0].ID
	slow := eg.OfOp("slow")[0].ID

	// InBy must decompose In exactly.
	var sum float64
	for _, v := range r.Rates[sink].InBy {
		sum += v
	}
	if math.Abs(sum-r.Rates[sink].In) > 1e-6 {
		t.Errorf("InBy sums to %v, In = %v", sum, r.Rates[sink].In)
	}
	// Fast path: spout emits 5e6 on each stream (1e7 cap x 0.5 sel);
	// fast forwards all 5e6; slow is capped at 5e5.
	if got := inFrom(t, eg, r, sink, fast); math.Abs(got-5e6) > 1 {
		t.Errorf("sink input from fast = %v, want 5e6", got)
	}
	if got := inFrom(t, eg, r, sink, slow); math.Abs(got-5e5) > 1 {
		t.Errorf("sink input from slow = %v, want 5e5", got)
	}
}

// TestWeightedTfByArrivalShare: when producers sit at different
// distances, Tf must be the arrival-weighted mix (FCFS with equal
// priority, Case 1 of Section 3.1).
func TestWeightedTfByArrivalShare(t *testing.T) {
	g := diamondGraph(t)
	eg, _ := plan.Build(g, nil, 1)
	m := numa.Synthetic("w", 4, 8, 50, 200, 400, 50*numa.GB, 10*numa.GB, 5*numa.GB)
	cfg := &Config{Machine: m, Stats: diamondStats(), Ingress: Saturated}
	p := plan.NewPlacement()
	p.Place(eg.OfOp("spout")[0].ID, 0)
	p.Place(eg.OfOp("fast")[0].ID, 0) // local to sink
	p.Place(eg.OfOp("slow")[0].ID, 1) // 1 hop from sink
	p.Place(eg.OfOp("sink")[0].ID, 0)

	r, err := Evaluate(eg, p, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink := eg.OfOp("sink")[0].ID
	vr := r.Rates[sink]
	// Arrivals: 5e6 local (fast) + ~4.54e5 remote (slow, slowed by its
	// own remote fetch). Expected Tf = remoteShare x 200.
	slowID := eg.OfOp("slow")[0].ID
	remoteShare := inFrom(t, eg, r, sink, slowID) / vr.In
	want := remoteShare * 200
	if math.Abs(vr.Tf-want) > 1e-6 {
		t.Errorf("sink Tf = %v, want %v (share %v)", vr.Tf, want, remoteShare)
	}
}

// TestBoundWithCompletePlacementEqualsUnbound: when every vertex is
// placed, the Bound option must not change the evaluation.
func TestBoundWithCompletePlacementEqualsUnbound(t *testing.T) {
	g := diamondGraph(t)
	eg, _ := plan.Build(g, map[string]int{"fast": 2}, 1)
	m := numa.Synthetic("b", 4, 8, 50, 200, 400, 50*numa.GB, 10*numa.GB, 5*numa.GB)
	cfg := &Config{Machine: m, Stats: diamondStats(), Ingress: Saturated}
	p := plan.NewPlacement()
	for i, v := range eg.Vertices {
		p.Place(v.ID, numa.SocketID(i%m.Sockets))
	}
	plain, err := Evaluate(eg, p, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := Evaluate(eg, p, cfg, Options{Bound: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Throughput != bounded.Throughput {
		t.Errorf("bound changed a complete evaluation: %v vs %v", plain.Throughput, bounded.Throughput)
	}
}

// TestChannelAccountingUsesProcessedShare: an over-supplied consumer
// only transfers what it processes, not what arrives.
func TestChannelAccountingUsesProcessedShare(t *testing.T) {
	g := diamondGraph(t)
	eg, _ := plan.Build(g, nil, 1)
	m := numa.Synthetic("c", 4, 8, 50, 200, 400, 50*numa.GB, 10*numa.GB, 5*numa.GB)
	stats := diamondStats()
	// Make the sink very slow so it is over-supplied.
	sk := stats["sink"]
	sk.Te = 5000
	stats["sink"] = sk
	cfg := &Config{Machine: m, Stats: stats, Ingress: Saturated}
	p := plan.NewPlacement()
	p.Place(eg.OfOp("spout")[0].ID, 0)
	p.Place(eg.OfOp("fast")[0].ID, 0)
	p.Place(eg.OfOp("slow")[0].ID, 0)
	p.Place(eg.OfOp("sink")[0].ID, 1)
	r, err := Evaluate(eg, p, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink := eg.OfOp("sink")[0].ID
	vr := r.Rates[sink]
	if !vr.OverSupplied {
		t.Fatal("sink should be over-supplied in this setup")
	}
	// Transferred bytes = processed x N, strictly less than arrivals x N.
	expected := vr.Processed * stats["sink"].N
	if math.Abs(r.ChannelUsed[0][1]-expected) > expected*1e-9 {
		t.Errorf("channel use = %v, want processed-based %v", r.ChannelUsed[0][1], expected)
	}
	arrivalBased := vr.In * stats["sink"].N
	if r.ChannelUsed[0][1] >= arrivalBased {
		t.Error("channel accounting used arrival rate instead of processed rate")
	}
}
