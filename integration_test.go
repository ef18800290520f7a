package briskstream

// integration_test.go exercises cross-module flows: multi-stream
// topologies on the public API, and the packaged benchmark applications
// driven end to end through optimizer + simulator + engine.

import (
	"io"
	"testing"
	"time"

	"briskstream/internal/apps"
	"briskstream/internal/model"
	"briskstream/internal/numa"
	"briskstream/internal/plan"
	"briskstream/internal/sim"
)

// TestMultiStreamPublicAPI builds a dispatcher-style topology with two
// named output streams routed to different consumers.
func TestMultiStreamPublicAPI(t *testing.T) {
	const total = 1200
	t.Parallel()

	topo := NewTopology("router")
	emitted := 0
	topo.Spout("events", func() Spout {
		return SpoutFunc(func(c Collector) error {
			if emitted >= total {
				return io.EOF
			}
			emitted++
			sendInt(c, int64(emitted))
			return nil
		})
	})
	topo.Operator("route", func() Operator {
		return OperatorFunc(func(c Collector, tp *Tuple) error {
			out := c.Borrow()
			out.CopyValuesFrom(tp)
			if tp.Int(0)%3 == 0 {
				out.Stream = Stream("thirds")
			} else {
				out.Stream = Stream("rest")
			}
			c.Send(out)
			return nil
		})
	}).Subscribe("events", Shuffle).
		Selectivity("thirds", 1.0/3).
		Selectivity("rest", 2.0/3)
	topo.Sink("third_sink", func() Operator {
		return OperatorFunc(func(c Collector, tp *Tuple) error { return nil })
	}).Subscribe("route", Shuffle.On("thirds"))
	topo.Sink("rest_sink", func() Operator {
		return OperatorFunc(func(c Collector, tp *Tuple) error { return nil })
	}).Subscribe("route", FieldsKey(0).On("rest"))

	res, err := topo.Run(RunConfig{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if res.SinkTuples != total {
		t.Fatalf("sink tuples = %d, want %d", res.SinkTuples, total)
	}
	if res.Processed["third_sink"] != total/3 {
		t.Errorf("third_sink = %d, want %d", res.Processed["third_sink"], total/3)
	}
	if res.Processed["rest_sink"] != total*2/3 {
		t.Errorf("rest_sink = %d, want %d", res.Processed["rest_sink"], total*2/3)
	}
}

// TestAllAppsSimulateOnBothServers drives every packaged benchmark
// through plan building and the fluid simulator on both paper machines.
func TestAllAppsSimulateOnBothServers(t *testing.T) {
	t.Parallel()
	for _, m := range []*numa.Machine{numa.ServerA(), numa.ServerB()} {
		for _, a := range apps.All() {
			eg, err := plan.Build(a.Graph, nil, 1)
			if err != nil {
				t.Fatalf("%s: %v", a.Name, err)
			}
			r, err := sim.Run(eg, plan.CollocateAll(eg), &sim.Config{
				Machine: m, Stats: a.Stats, Ingress: model.Saturated, Duration: 0.5,
			})
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name, m.Name, err)
			}
			if r.Throughput <= 0 {
				t.Errorf("%s on %s: zero simulated throughput", a.Name, m.Name)
			}
			if r.AvgLatencyNs <= 0 {
				t.Errorf("%s on %s: zero simulated latency", a.Name, m.Name)
			}
		}
	}
}

// TestOptimizeThenRunScaledPlan closes the loop: optimize WC for a big
// machine, scale the replication down to this host, and run it.
func TestOptimizeThenRunScaledPlan(t *testing.T) {
	t.Parallel()
	wc := apps.ByName("WC")

	topo := NewTopology("wc-loop")
	topo.Spout("spout", wc.Spouts["spout"])
	topo.Operator("parser", wc.Operators["parser"]).Subscribe("spout", Shuffle)
	topo.Operator("splitter", wc.Operators["splitter"]).
		Subscribe("parser", Shuffle).Selectivity(DefaultStream, 10)
	topo.Operator("counter", wc.Operators["counter"]).Subscribe("splitter", FieldsKey(0))
	topo.Sink("sink", wc.Operators["sink"]).Subscribe("counter", Shuffle)

	stats := map[string]OperatorStats{}
	for op, st := range wc.Stats {
		stats[op] = OperatorStats{ExecNs: st.Te, MemoryBytes: st.M, TupleBytes: st.N, Selectivity: st.Selectivity}
	}
	p, err := topo.Optimize(OptimizeConfig{
		Machine: ServerA(), Stats: stats,
		SearchNodeLimit: 400, MaxIterations: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Scale the 144-core plan down ~20x for the test host, preserving
	// the plan's ratios.
	repl := map[string]int{}
	for op, k := range p.Replication {
		repl[op] = (k + 19) / 20
	}
	res, err := topo.Run(RunConfig{Duration: 150 * time.Millisecond, Replication: repl})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if res.SinkTuples == 0 {
		t.Fatal("scaled plan processed nothing")
	}
}
