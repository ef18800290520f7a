package briskstream

// ablation_bench_test.go measures this implementation's design choices,
// beyond the paper's own figures: the branch-and-bound heuristics
// (redundant sub-problem elimination, warm start) and the jumbo-tuple
// batch size. Each benchmark reports a comparative metric so
// `go test -bench=Ablation` reads as a small ablation study.

import (
	"fmt"
	"io"
	"testing"
	"time"

	"briskstream/internal/apps"
	"briskstream/internal/bnb"
	"briskstream/internal/engine"
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
