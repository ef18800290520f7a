package bnb

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"briskstream/internal/model"
	"briskstream/internal/numa"
	"briskstream/internal/plan"
)

// TestDedupSkipsIdenticalSubProblems: the same partial placement reached
// through different decision orders must be expanded once.
func TestDedupSkipsIdenticalSubProblems(t *testing.T) {
	m := numa.Synthetic("dedup", 4, 2, 50, 200, 400, 50*numa.GB, 10*numa.GB, 5*numa.GB)
	cfg := &model.Config{Machine: m, Stats: stats(100, 800, 60), Ingress: model.Saturated}
	eg, _ := plan.Build(chain(t), map[string]int{"worker": 4}, 1)

	with, err := Optimize(eg, cfg, Config{NodeLimit: 100000})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Optimize(eg, cfg, Config{NodeLimit: 100000, NoDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Deduped == 0 {
		t.Error("no duplicate sub-problems detected; the WC-style graph must produce some")
	}
	if without.Deduped != 0 {
		t.Error("NoDedup still deduplicated")
	}
	// Dedup must not change the solution quality.
	if with.Eval.Throughput < without.Eval.Throughput*(1-1e-9) {
		t.Errorf("dedup degraded solution: %v vs %v", with.Eval.Throughput, without.Eval.Throughput)
	}
	// And it should reduce (or at worst match) the work done.
	if with.Explored > without.Explored {
		t.Errorf("dedup explored more nodes (%d) than baseline (%d)", with.Explored, without.Explored)
	}
}

// TestWarmStartDoesNotDegrade: seeding the incumbent with the greedy
// plan must never produce a worse final solution.
func TestWarmStartDoesNotDegrade(t *testing.T) {
	m := numa.Synthetic("warm", 4, 2, 50, 200, 400, 50*numa.GB, 10*numa.GB, 5*numa.GB)
	cfg := &model.Config{Machine: m, Stats: stats(100, 800, 60), Ingress: model.Saturated}
	eg, _ := plan.Build(chain(t), map[string]int{"worker": 3}, 1)

	cold, err := Optimize(eg, cfg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Optimize(eg, cfg, Config{WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Eval.Throughput < cold.Eval.Throughput*(1-1e-9) {
		t.Errorf("warm start degraded solution: %v vs %v", warm.Eval.Throughput, cold.Eval.Throughput)
	}
}

// TestWarmStartPrunesEarlier: with a node budget too small for the cold
// search to reach any solution on a deep graph, the warm start still
// returns a valid plan.
func TestWarmStartRescuesTinyBudget(t *testing.T) {
	m := numa.Synthetic("tiny-budget", 4, 4, 50, 200, 400, 50*numa.GB, 10*numa.GB, 5*numa.GB)
	cfg := &model.Config{Machine: m, Stats: stats(100, 500, 60), Ingress: model.Saturated}
	eg, _ := plan.Build(chain(t), map[string]int{"worker": 8}, 1)

	warm, err := Optimize(eg, cfg, Config{NodeLimit: 1, WarmStart: true})
	if err != nil {
		t.Fatalf("warm start with 1-node budget: %v", err)
	}
	if warm.Placement == nil || !warm.Eval.Feasible() {
		t.Error("warm start did not provide a usable incumbent")
	}
}

// TestGreedyPlacementComplete: the warm-start helper always returns a
// complete placement.
func TestGreedyPlacementComplete(t *testing.T) {
	m := numa.Synthetic("greedy", 2, 1, 50, 200, 400, 50*numa.GB, 10*numa.GB, 5*numa.GB)
	cfg := &model.Config{Machine: m, Stats: stats(100, 100, 100), Ingress: model.Saturated}
	eg, _ := plan.Build(chain(t), map[string]int{"worker": 4}, 1)
	p := greedyPlacement(eg, cfg)
	if p == nil || !p.Complete(eg) {
		t.Fatal("greedy placement incomplete")
	}
}

// TestPlacementSignature: distinct placements get distinct signatures;
// equal placements collide.
func TestPlacementSignature(t *testing.T) {
	eg, _ := plan.Build(chain(t), nil, 1)
	sig := func(p *plan.Placement) string { return string(placementSignature(nil, eg, p)) }
	a := plan.NewPlacement()
	a.Place(eg.Vertices[0].ID, 0)
	b := plan.NewPlacement()
	b.Place(eg.Vertices[0].ID, 0)
	if sig(a) != sig(b) {
		t.Error("identical placements have different signatures")
	}
	b.Place(eg.Vertices[1].ID, 1)
	if sig(a) == sig(b) {
		t.Error("different placements share a signature")
	}
	c := plan.NewPlacement()
	c.Place(eg.Vertices[0].ID, 1)
	if sig(a) == sig(c) {
		t.Error("different sockets share a signature")
	}
}

// TestSocketSignatureFormat: the appended socket signature is byte-for-
// byte the %.6g|%.6g|%g... string, so socket equivalence classes (and
// with them the search) do not depend on how the key is built.
func TestSocketSignatureFormat(t *testing.T) {
	m := numa.ServerB()
	rng := rand.New(rand.NewPCG(1, 2))
	values := []float64{0, -0.0, 1, 1e-7, 123456.5, 1234567, 2.5e21, math.Inf(1), math.NaN()}
	for range 200 {
		values = append(values, rng.Float64()*math.Pow(10, float64(rng.IntN(30)-6)))
	}
	used := []int{0, 3, 5}
	var buf []byte
	for i, cpu := range values {
		bw := values[(i*7+3)%len(values)]
		cur := &model.Result{CPUUsed: make([]float64, m.Sockets), BWUsed: make([]float64, m.Sockets)}
		s := i % m.Sockets
		cur.CPUUsed[s], cur.BWUsed[s] = cpu, bw
		want := fmt.Sprintf("%.6g|%.6g", cpu, bw)
		for _, u := range used {
			want += fmt.Sprintf("|%g", m.L(numa.SocketID(s), numa.SocketID(u)))
		}
		buf = signature(buf[:0], m, cur, s, used)
		if string(buf) != want {
			t.Fatalf("signature(%v, %v) = %q, want %q", cpu, bw, buf, want)
		}
	}
}
