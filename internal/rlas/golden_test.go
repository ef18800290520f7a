package rlas

import (
	"math"
	"testing"

	"briskstream/internal/apps"
	"briskstream/internal/bnb"
	"briskstream/internal/model"
	"briskstream/internal/numa"
)

// TestGoldenSearch pins the planner end to end on the four optimizer
// requests of the rlas_plan benchmark workload (cmd/rlas's seeded
// replication at fill 0.7, compress 5, 40 iterations, node limit 300):
// the predicted throughput of the returned plan, the number of scaling
// rounds and the branch-and-bound nodes explored across them. The values
// were recorded before the placement search was made allocation-light;
// a change to the model, the search or its bookkeeping that returns a
// different plan, or reaches it along a different path, fails here.
func TestGoldenSearch(t *testing.T) {
	cases := []struct {
		app, machine string
		throughput   float64 // tuples/s
		iterations   int
		explored     int
	}{
		{"WC", "A", 76908956.692819625, 5, 1500},
		{"FD", "A", 8185711.7438466558, 11, 2703},
		{"SD", "B", 5393677.4981283629, 9, 2214},
		{"LR", "B", 5307837.8135118475, 10, 2288},
	}
	for _, c := range cases {
		t.Run(c.app+"@"+c.machine, func(t *testing.T) {
			a := apps.ByName(c.app)
			m := numa.ServerA()
			if c.machine == "B" {
				m = numa.ServerB()
			}
			seed, err := SeedReplication(a.Graph, a.Stats, m.TotalCores(), 0.7)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Optimize(a.Graph, Config{
				Model:         &model.Config{Machine: m, Stats: a.Stats, Ingress: model.Saturated},
				Compress:      5,
				BnB:           bnb.Config{NodeLimit: 300},
				Initial:       seed,
				MaxIterations: 40,
			})
			if err != nil {
				t.Fatal(err)
			}
			explored := 0
			for _, it := range r.Trace {
				explored += it.Explored
			}
			if !r.Eval.Feasible() {
				t.Errorf("plan infeasible: %v", r.Eval.Violations)
			}
			if got := r.Eval.Throughput; math.Abs(got-c.throughput) > 1e-9*c.throughput {
				t.Errorf("throughput = %.17g, want %.17g", got, c.throughput)
			}
			if r.Iterations != c.iterations {
				t.Errorf("iterations = %d, want %d", r.Iterations, c.iterations)
			}
			if explored != c.explored {
				t.Errorf("nodes explored = %d, want %d", explored, c.explored)
			}
		})
	}
}
