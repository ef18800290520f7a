package briskstream

// ablation_bench_test.go measures the design choices DESIGN.md calls
// out, beyond the paper's own figures: the branch-and-bound heuristics
// (redundant sub-problem elimination, warm start), operator fusion, and
// the jumbo-tuple batch size. Each benchmark reports a comparative
// metric so `go test -bench=Ablation` reads as a small ablation study.

import (
	"fmt"
	"io"
	"testing"
	"time"

	"briskstream/internal/apps"
	"briskstream/internal/bnb"
	"briskstream/internal/engine"
	"briskstream/internal/fuse"
	"briskstream/internal/model"
	"briskstream/internal/numa"
	"briskstream/internal/plan"
	"briskstream/internal/tuple"
)

// ablationSetup builds a mid-size WC execution graph and model config.
func ablationSetup(b *testing.B) (*plan.ExecGraph, *model.Config) {
	b.Helper()
	wc := apps.ByName("WC")
	m := numa.ServerA()
	eg, err := plan.Build(wc.Graph, map[string]int{
		"spout": 4, "parser": 2, "splitter": 8, "counter": 40, "sink": 10,
	}, 5)
	if err != nil {
		b.Fatal(err)
	}
	return eg, &model.Config{Machine: m, Stats: wc.Stats, Ingress: model.Saturated}
}

// BenchmarkAblationBnBDedup measures the placement search with
// redundant-sub-problem elimination enabled (the default).
func BenchmarkAblationBnBDedup(b *testing.B) {
	eg, cfg := ablationSetup(b)
	for i := 0; i < b.N; i++ {
		r, err := bnb.Optimize(eg, cfg, bnb.Config{NodeLimit: 3000})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.Explored), "nodes")
			b.ReportMetric(float64(r.Deduped), "deduped")
			b.ReportMetric(r.Eval.Throughput/1000, "Kevents/s")
		}
	}
}

// BenchmarkAblationBnBNoDedup disables dedup: same solution, more nodes.
func BenchmarkAblationBnBNoDedup(b *testing.B) {
	eg, cfg := ablationSetup(b)
	for i := 0; i < b.N; i++ {
		r, err := bnb.Optimize(eg, cfg, bnb.Config{NodeLimit: 3000, NoDedup: true})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.Explored), "nodes")
			b.ReportMetric(r.Eval.Throughput/1000, "Kevents/s")
		}
	}
}

// BenchmarkAblationBnBWarmStart seeds the incumbent with a greedy plan.
func BenchmarkAblationBnBWarmStart(b *testing.B) {
	eg, cfg := ablationSetup(b)
	for i := 0; i < b.N; i++ {
		r, err := bnb.Optimize(eg, cfg, bnb.Config{NodeLimit: 3000, WarmStart: true})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.Pruned), "pruned")
			b.ReportMetric(r.Eval.Throughput/1000, "Kevents/s")
		}
	}
}

// fusionPipeline runs the (optionally fused) WC pipeline on the real
// engine for b.N sentences and reports the sink rate.
func fusionPipeline(b *testing.B, fused bool) {
	b.Helper()
	wc := apps.ByName("WC")
	app, ops := wc.Graph, wc.Operators
	if fused {
		res, err := fuse.Apply(wc.Graph, wc.Stats, wc.Operators,
			[]fuse.Pair{{Producer: "parser", Consumer: "splitter"}, {Producer: "counter", Consumer: "sink"}})
		if err != nil {
			b.Fatal(err)
		}
		app, ops = res.Graph, res.Operators
	}
	n := b.N
	spout := func() engine.Spout {
		i := 0
		return engine.SpoutFunc(func(c engine.Collector) error {
			if i >= n {
				return io.EOF
			}
			i++
			out := c.Borrow()
			out.AppendStr("alpha beta gamma delta epsilon zeta eta theta iota kappa")
			out.Event = int64(i)
			c.Send(out)
			if i%64 == 0 {
				c.EmitWatermark(int64(i))
			}
			return nil
		})
	}
	e, err := engine.New(engine.Topology{
		App:       app,
		Spouts:    map[string]func() engine.Spout{"spout": spout},
		Operators: ops,
	}, engine.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	res, err := e.Run(0)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Errors) != 0 {
		b.Fatal(res.Errors)
	}
	// The counter aggregates windows, so the sink sees window closes;
	// sentences/s at the spout compares the shapes on equal terms.
	b.ReportMetric(float64(res.Processed["spout"])/time.Since(start).Seconds(), "sentences/s")
}

// BenchmarkAblationFusionOff runs WC with every stage as its own task.
func BenchmarkAblationFusionOff(b *testing.B) { fusionPipeline(b, false) }

// BenchmarkAblationFusionOn fuses parser+splitter and counter+sink: on a
// host with few cores, trading pipeline parallelism for fewer queue hops
// usually wins — the opposite call the optimizer makes on a 144-core
// box, which is exactly the trade-off Appendix D describes.
func BenchmarkAblationFusionOn(b *testing.B) { fusionPipeline(b, true) }

// BenchmarkAblationBatchSize sweeps the jumbo-tuple size on the real
// engine (Section 5.2's communication amortization).
func BenchmarkAblationBatchSize(b *testing.B) {
	for _, batch := range []int{1, 4, 16, 64, 256} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			cfg := engine.DefaultConfig()
			cfg.BatchSize = batch
			n := b.N
			spout := func() engine.Spout {
				i := 0
				return engine.SpoutFunc(func(c engine.Collector) error {
					if i >= n {
						return io.EOF
					}
					i++
					sendInt(c, int64(i))
					return nil
				})
			}
			pass := func() engine.Operator {
				return engine.OperatorFunc(func(c engine.Collector, t *tuple.Tuple) error {
					out := c.Borrow()
					out.CopyValuesFrom(t)
					c.Send(out)
					return nil
				})
			}
			sink := func() engine.Operator {
				return engine.OperatorFunc(func(c engine.Collector, t *tuple.Tuple) error { return nil })
			}
			e, err := engine.New(engine.Topology{
				App: pipelineApp(),
				Spouts: map[string]func() engine.Spout{
					"spout": spout,
				},
				Operators: map[string]func() engine.Operator{"double": pass, "sink": sink},
			}, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			start := time.Now()
			res, err := e.Run(0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.SinkTuples)/time.Since(start).Seconds(), "tuples/s")
			reportTuplesPerInsert(b, res)
		})
	}
}
