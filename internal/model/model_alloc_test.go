package model

import (
	"math/rand"
	"testing"

	"briskstream/internal/apps"
	"briskstream/internal/numa"
	"briskstream/internal/plan"
)

// wcAt builds WordCount at a mid-size replication, compressed by ratio,
// placed round-robin over the sockets of m in topological order.
func wcAt(t *testing.T, m *numa.Machine, ratio int) (*plan.ExecGraph, *plan.Placement, *Config) {
	t.Helper()
	wc := apps.ByName("WC")
	eg, err := plan.Build(wc.Graph, map[string]int{
		"spout": 4, "parser": 2, "splitter": 8, "counter": 40, "sink": 10,
	}, ratio)
	if err != nil {
		t.Fatal(err)
	}
	p := plan.NewPlacement()
	for i, id := range eg.TopoOrder() {
		p.Place(id, numa.SocketID(i%m.Sockets))
	}
	return eg, p, &Config{Machine: m, Stats: wc.Stats, Ingress: Saturated}
}

// TestEvaluateAllocsIndependentOfGraphSize: Evaluate runs in the
// branch-and-bound inner loop, so its allocation count must not grow
// with the number of vertices or edges. WC at compress 1 has several
// times the vertices and edges of WC at compress 5.
func TestEvaluateAllocsIndependentOfGraphSize(t *testing.T) {
	m := numa.ServerA()
	allocs := map[int]float64{}
	sizes := map[int]int{}
	for _, ratio := range []int{5, 1} {
		eg, p, cfg := wcAt(t, m, ratio)
		sizes[ratio] = len(eg.Vertices)
		allocs[ratio] = testing.AllocsPerRun(20, func() {
			if _, err := Evaluate(eg, p, cfg, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if sizes[1] <= sizes[5] {
		t.Fatalf("compress 1 gave %d vertices, compress 5 %d: the graphs do not differ in size", sizes[1], sizes[5])
	}
	if allocs[1] != allocs[5] {
		t.Errorf("Evaluate allocates %v times on %d vertices but %v times on %d", allocs[1], sizes[1], allocs[5], sizes[5])
	}
}

// TestEvaluateBitDeterministic: the same placement, assembled by Place
// calls in two different orders, evaluates to bit-identical results —
// every sum runs in the execution graph's fixed edge order.
func TestEvaluateBitDeterministic(t *testing.T) {
	lr := apps.ByName("LR")
	m := numa.ServerB()
	repl := map[string]int{}
	for _, n := range lr.Graph.Nodes() {
		repl[n.Name] = 3
	}
	eg, err := plan.Build(lr.Graph, repl, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{Machine: m, Stats: lr.Stats, Ingress: Saturated}
	rng := rand.New(rand.NewSource(7))
	socket := make([]numa.SocketID, len(eg.Vertices))
	for i := range socket {
		socket[i] = numa.SocketID(rng.Intn(m.Sockets))
	}
	forward, backward := plan.NewPlacement(), plan.NewPlacement()
	for i := range socket {
		forward.Place(plan.VertexID(i), socket[i])
		j := len(socket) - 1 - i
		backward.Place(plan.VertexID(j), socket[j])
	}
	a := mustEval(t, eg, forward, cfg, Options{})
	for range 5 {
		b := mustEval(t, eg, backward, cfg, Options{})
		if a.Throughput != b.Throughput {
			t.Fatalf("Throughput %v vs %v", a.Throughput, b.Throughput)
		}
		for s := range m.Sockets {
			if a.CPUUsed[s] != b.CPUUsed[s] {
				t.Fatalf("CPUUsed[%d] %v vs %v", s, a.CPUUsed[s], b.CPUUsed[s])
			}
			for d := range m.Sockets {
				if a.ChannelUsed[s][d] != b.ChannelUsed[s][d] {
					t.Fatalf("ChannelUsed[%d][%d] %v vs %v", s, d, a.ChannelUsed[s][d], b.ChannelUsed[s][d])
				}
			}
		}
	}
}
