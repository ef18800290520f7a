// Package apps provides the four benchmark applications of the paper's
// evaluation (Section 6.1, Appendix B), taken from the earlier multicore
// DSPS study [Zhang et al., ICDE'17]: word count (WC), fraud detection
// (FD), spike detection (SD) and linear road (LR). Each application
// bundles its logical topology, executable operator implementations for
// the engine, a deterministic workload generator, and canned operator
// statistics calibrated so the model reproduces the paper's Server A
// throughput magnitudes (Table 4).
package apps

import (
	"math/rand"

	"briskstream/internal/engine"
	"briskstream/internal/graph"
	"briskstream/internal/profile"
	"briskstream/internal/tuple"
	"briskstream/internal/vec"
)

// App is one runnable benchmark application.
type App struct {
	// Name is the short identifier used throughout the paper: "WC",
	// "FD", "SD" or "LR".
	Name string
	// Graph is the logical topology.
	Graph *graph.Graph
	// Spouts and Operators build the executable implementation for the
	// engine, keyed by operator name.
	Spouts    map[string]func() engine.Spout
	Operators map[string]func() engine.Operator
	// Schemas declares the typed tuple layout of every operator's
	// output streams (operator name → stream name → schema); the engine
	// validates the first batch per route against it.
	Schemas map[string]map[string]*tuple.Schema
	// Stats are the canned per-operator statistics (Te in Server A
	// reference nanoseconds, N/M in bytes, per-stream selectivity) that
	// instantiate the performance model, standing in for the paper's
	// overseer/classmexer profiling runs.
	Stats profile.Set
}

// Topology packages the app for the engine (graph, builders, schemas).
func (a *App) Topology(replication map[string]int) engine.Topology {
	return engine.Topology{
		App:         a.Graph,
		Spouts:      a.Spouts,
		Operators:   a.Operators,
		Replication: replication,
		Schemas:     a.Schemas,
	}
}

// All returns the four applications of the paper's evaluation in the
// paper's order. Model-accuracy experiments iterate this set, keeping
// them comparable with the published tables.
func All() []*App {
	return []*App{WordCount(), FraudDetection(), SpikeDetection(), LinearRoad()}
}

// Benchmarks returns every packaged application: the paper's four plus
// the repo's own additions (TW, the sessionized top-K trending-words
// workload benchmarking the window subsystem).
func Benchmarks() []*App {
	return append(All(), TrendingWords())
}

// ByName returns the application with the given name, or nil.
func ByName(name string) *App {
	for _, a := range Benchmarks() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// rng returns a deterministic per-replica random source: replicated
// spouts must not emit identical streams, and runs must be reproducible.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// nopSink is the shared discarding sink: the engine does all sink-side
// accounting (result counts, end-to-end latency), the operator only
// absorbs input. Batch-aware so sink input edges go columnar — the
// engine accounts per row off the batch's own timestamp lane, leaving
// ProcessBatch nothing to do.
type nopSink struct{}

func (nopSink) Process(engine.Collector, *tuple.Tuple) error      { return nil }
func (nopSink) ProcessBatch(engine.Collector, *tuple.Batch) error { return nil }

// arityParser drops records with fewer than min fields and forwards the
// rest — the validating-parser shape SD and FD share. Batches are
// layout-homogeneous (the builder splits on layout change), so it
// decides once for all rows: too few columns drops the whole batch,
// otherwise every row forwards.
type arityParser struct {
	one engine.OneRow
	min int
}

func (p *arityParser) Process(c engine.Collector, t *tuple.Tuple) error {
	return p.one.Process(p, c, t)
}

func (p *arityParser) ProcessBatch(c engine.Collector, b *tuple.Batch) error {
	if b.Cols() < p.min {
		return nil
	}
	vec.ForwardAll(c, b, tuple.DefaultStreamID)
	return nil
}

// passOp forwards every input on the default stream, each row with its
// own metadata: the validating pass-through shape.
type passOp struct{ one engine.OneRow }

func (p *passOp) Process(c engine.Collector, t *tuple.Tuple) error { return p.one.Process(p, c, t) }

func (p *passOp) ProcessBatch(c engine.Collector, b *tuple.Batch) error {
	vec.ForwardAll(c, b, tuple.DefaultStreamID)
	return nil
}

func mustNode(g *graph.Graph, n *graph.Node) {
	if err := g.AddNode(n); err != nil {
		panic(err)
	}
}

func mustEdge(g *graph.Graph, e graph.Edge) {
	if err := g.AddEdge(e); err != nil {
		panic(err)
	}
}

func mustValid(g *graph.Graph) *graph.Graph {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}
