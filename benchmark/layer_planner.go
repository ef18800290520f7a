package main

import (
	"fmt"

	"briskstream/internal/apps"
	"briskstream/internal/bnb"
	"briskstream/internal/model"
	"briskstream/internal/numa"
	"briskstream/internal/placement"
	"briskstream/internal/plan"
	"briskstream/internal/rlas"
)

// microPlanner times the optimizer's layers bottom-up on small pinned
// inputs: building an execution graph, evaluating the model on it, one
// branch-and-bound search, one whole RLAS run.
func microPlanner(rep *report) error {
	wc, a := apps.ByName("WC"), numa.ServerA()
	repl, err := rlas.SeedReplication(wc.Graph, wc.Stats, a.TotalCores(), planFill)
	if err != nil {
		return fmt.Errorf("planner microbenchmark: %w", err)
	}
	var eg *plan.ExecGraph
	const builds = 200
	rep.set("plan.build_us", fastest(builds, func() {
		for i := 0; i < builds && err == nil; i++ {
			eg, err = plan.Build(wc.Graph, repl, planCompress)
		}
	})/1e3)
	if err != nil {
		return fmt.Errorf("plan.build_us: %w", err)
	}

	cfg := &model.Config{Machine: a, Stats: wc.Stats, Ingress: model.Saturated}
	rr := placement.RR(eg, a)
	const evals = 200
	rep.set("model.evaluate_us", fastest(evals, func() {
		for i := 0; i < evals && err == nil; i++ {
			_, err = model.Evaluate(eg, rr, cfg, model.Options{})
		}
	})/1e3)
	if err != nil {
		return fmt.Errorf("model.evaluate_us: %w", err)
	}

	var search *bnb.Result
	rep.set("bnb.search_ms", fastest(1, func() {
		if err == nil {
			search, err = bnb.Optimize(eg, cfg, bnb.Config{NodeLimit: 200})
		}
	})/1e6)
	if err != nil {
		return fmt.Errorf("bnb.search_ms: %w", err)
	}
	rep.set("bnb.nodes_explored", float64(search.Explored))

	sd, b := apps.ByName("SD"), numa.ServerB()
	in := planInput{app: sd, machine: b}
	if in.seed, err = rlas.SeedReplication(sd.Graph, sd.Stats, b.TotalCores(), planFill); err != nil {
		return fmt.Errorf("rlas.optimize_ms: %w", err)
	}
	var res *rlas.Result
	rep.set("rlas.optimize_ms", fastest(1, func() {
		if err == nil {
			res, err = optimize(in, 100)
		}
	})/1e6)
	if err != nil {
		return fmt.Errorf("rlas.optimize_ms: %w", err)
	}
	rep.set("rlas.iterations", float64(res.Iterations))
	return nil
}
