// Frauddetection: the paper's FD benchmark on the real engine — a
// transaction stream scored by a per-entity predictor, with end-to-end
// latency reporting and a comparison of the BriskStream execution path
// against an emulated distributed-engine path (per-hop serialization,
// defensive copies, per-tuple queue insertions).
//
//	go run ./examples/frauddetection
package main

import (
	"fmt"
	"log"
	"time"

	"briskstream/internal/apps"
	"briskstream/internal/baseline"
	"briskstream/internal/engine"
)

func fdTopology() engine.Topology {
	fd := apps.ByName("FD")
	return engine.Topology{
		App:       fd.Graph,
		Spouts:    fd.Spouts,
		Operators: fd.Operators,
		Replication: map[string]int{
			"parser": 1, "predict": 2, "sink": 1,
		},
	}
}

func run(name string, topo engine.Topology, cfg engine.Config) {
	e, err := engine.New(topo, cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := e.Run(2 * time.Second)
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Errors) > 0 {
		log.Fatalf("%s: runtime errors: %v", name, res.Errors)
	}
	fmt.Printf("%-22s %10.0f tuples/s   p50 %8.3f ms   p99 %8.3f ms\n",
		name, res.Throughput,
		res.Latency.Quantile(0.5)/1e6, res.Latency.Quantile(0.99)/1e6)
}

func main() {
	fmt.Println("fraud detection: BriskStream path vs distributed-engine path")
	run("briskstream", fdTopology(), engine.DefaultConfig())
	topo, cfg := baseline.Storm().OnEngine(fdTopology())
	run("storm-like", topo, cfg)
}
