// Package fuse implements operator fusion, the execution-plan extension
// Appendix D discusses: a producer-consumer pair is collapsed into one
// operator executed by one task, trading pipeline parallelism for zero
// communication on the fused edge. Fusion pays off when the fused
// operators share little common resource demand; the fused operator's
// model statistics compose as
//
//	Te' = Te_u + sel_u x Te_v   (v runs once per tuple u emits)
//	M'  = M_u + sel_u x M_v
//	N'  = N_u                   (only u's input is fetched remotely)
//	sel'(s) = sel_u x sel_v(s)
//
// Only shuffle- or global-grouped edges are fusable: a fields-grouped
// edge pins keys to replicas, and fusing it would silently repartition
// the consumer's keyed state across the producer's replicas.
package fuse

import (
	"fmt"

	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
	"briskstream/internal/graph"
	"briskstream/internal/profile"
	"briskstream/internal/tuple"
)

// Pair names a producer-consumer fusion candidate.
type Pair struct {
	Producer, Consumer string
}

// Chains returns all fusable producer-consumer pairs of the graph: the
// producer has exactly one consumer and is not a spout, the consumer has
// exactly one producer, and the connecting edge is shuffle- or
// global-grouped.
func Chains(app *graph.Graph) []Pair {
	var out []Pair
	for _, n := range app.Nodes() {
		if n.IsSpout {
			continue
		}
		outs := app.Out(n.Name)
		if len(outs) != 1 {
			continue
		}
		e := outs[0]
		if e.Partitioning != graph.Shuffle && e.Partitioning != graph.Global {
			continue
		}
		if len(app.In(e.To)) != 1 {
			continue
		}
		out = append(out, Pair{Producer: n.Name, Consumer: e.To})
	}
	return out
}

// Result carries the fused application.
type Result struct {
	// Graph is the fused logical DAG.
	Graph *graph.Graph
	// Stats are the composed operator statistics.
	Stats profile.Set
	// Operators maps every (fused and untouched) operator to a builder.
	Operators map[string]func() engine.Operator
	// FusedName maps each fused pair to its new operator name.
	FusedName map[Pair]string
}

// Apply fuses the given pairs. Pairs must be disjoint (no operator may
// appear in two pairs) and fusable per the Chains criteria.
func Apply(app *graph.Graph, stats profile.Set, ops map[string]func() engine.Operator, pairs []Pair) (*Result, error) {
	if len(pairs) == 0 {
		return nil, fmt.Errorf("fuse: no pairs given")
	}
	valid := map[Pair]bool{}
	for _, c := range Chains(app) {
		valid[c] = true
	}
	used := map[string]bool{}
	fusedOf := map[string]Pair{} // member op -> its pair
	for _, p := range pairs {
		if !valid[p] {
			return nil, fmt.Errorf("fuse: %s->%s is not fusable", p.Producer, p.Consumer)
		}
		if used[p.Producer] || used[p.Consumer] {
			return nil, fmt.Errorf("fuse: operator reused across pairs")
		}
		used[p.Producer] = true
		used[p.Consumer] = true
		fusedOf[p.Producer] = p
		fusedOf[p.Consumer] = p
	}

	res := &Result{
		Graph:     graph.New(app.Name() + "+fused"),
		Stats:     profile.Set{},
		Operators: map[string]func() engine.Operator{},
		FusedName: map[Pair]string{},
	}
	name := func(p Pair) string { return p.Producer + "+" + p.Consumer }
	// rename maps original operator names to fused-graph names.
	rename := func(op string) string {
		if p, ok := fusedOf[op]; ok {
			return name(p)
		}
		return op
	}

	// Nodes.
	added := map[string]bool{}
	for _, n := range app.Nodes() {
		if p, ok := fusedOf[n.Name]; ok {
			fn := name(p)
			if added[fn] {
				continue
			}
			added[fn] = true
			res.FusedName[p] = fn
			cons := app.Node(p.Consumer)
			prodStats, okP := stats[p.Producer]
			consStats, okC := stats[p.Consumer]
			if !okP || !okC {
				return nil, fmt.Errorf("fuse: missing stats for pair %s->%s", p.Producer, p.Consumer)
			}
			selU := prodStats.TotalSelectivity()
			sel := map[string]float64{}
			for s, v := range consStats.Selectivity {
				sel[s] = selU * v
			}
			res.Graph.AddNode(&graph.Node{
				Name:        fn,
				IsSink:      cons.IsSink,
				Selectivity: sel,
			})
			res.Stats[fn] = profile.Stats{
				Te:          prodStats.Te + selU*consStats.Te,
				M:           prodStats.M + selU*consStats.M,
				N:           prodStats.N,
				Selectivity: sel,
			}
			mkU, mkV := ops[p.Producer], ops[p.Consumer]
			if mkU == nil || mkV == nil {
				return nil, fmt.Errorf("fuse: missing operator builder for pair %s->%s", p.Producer, p.Consumer)
			}
			res.Operators[fn] = Compose(mkU, mkV)
			continue
		}
		// Untouched node: copy.
		sel := map[string]float64{}
		for s, v := range n.Selectivity {
			sel[s] = v
		}
		res.Graph.AddNode(&graph.Node{Name: n.Name, IsSpout: n.IsSpout, IsSink: n.IsSink, Selectivity: sel})
		if st, ok := stats[n.Name]; ok {
			res.Stats[n.Name] = st
		}
		if mk, ok := ops[n.Name]; ok {
			res.Operators[n.Name] = mk
		}
	}

	// Edges: drop the fused edge; retarget everything else.
	for _, e := range app.Edges() {
		if p, ok := fusedOf[e.From]; ok && p.Consumer == e.To {
			continue // internal edge of a fused pair
		}
		ne := e
		ne.From = rename(e.From)
		ne.To = rename(e.To)
		if err := res.Graph.AddEdge(ne); err != nil {
			return nil, err
		}
	}
	if err := res.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("fuse: fused graph invalid: %w", err)
	}
	return res, nil
}

// Compose chains two operator builders into one: the producer's
// emissions are fed synchronously to the consumer within the same task,
// eliminating the intermediate queue entirely. Timer and watermark
// callbacks are forwarded to both members (upstream first, so its fired
// aggregates reach the consumer before the consumer's own callbacks);
// the members share the task's timer service, so each must tolerate
// OnTimer for timestamps it did not register — the documented
// TimerHandler contract.
func Compose(mkU, mkV func() engine.Operator) func() engine.Operator {
	return func() engine.Operator {
		f := &fusedOp{u: mkU(), v: mkV()}
		f.cc = chainCollector{downstream: f.v, pool: tuple.NewPool()}
		f.cc.Sink = f.cc.process
		return f
	}
}

// fusedOp is a fused producer-consumer pair running as one operator.
// cc is the collector u emits into: it feeds each row to v. Like the
// task running the pair, it belongs to one goroutine.
type fusedOp struct {
	u, v engine.Operator
	cc   chainCollector
}

// chain readies the pair's chain collector for one call of u whose
// consumer v emits into c.
func (f *fusedOp) chain(c engine.Collector) *chainCollector {
	f.cc.out, f.cc.err = c, nil
	return &f.cc
}

// Process implements engine.Operator.
func (f *fusedOp) Process(c engine.Collector, t *tuple.Tuple) error {
	cc := f.chain(c)
	return cc.done(f.u.Process(cc, t))
}

// SetTimers implements engine.TimerAware by injecting the task's timer
// service into both members.
func (f *fusedOp) SetTimers(tm *engine.Timers) {
	if ta, ok := f.u.(engine.TimerAware); ok {
		ta.SetTimers(tm)
	}
	if ta, ok := f.v.(engine.TimerAware); ok {
		ta.SetTimers(tm)
	}
}

// OnTimer implements engine.TimerHandler: the upstream member fires
// first and its emissions flow through the fused chain into the
// consumer, then the consumer's own timers fire.
func (f *fusedOp) OnTimer(c engine.Collector, kind engine.TimerKind, at int64) error {
	if h, ok := f.u.(engine.TimerHandler); ok {
		cc := f.chain(c)
		if err := cc.done(h.OnTimer(cc, kind, at)); err != nil {
			return err
		}
	}
	if h, ok := f.v.(engine.TimerHandler); ok {
		return h.OnTimer(c, kind, at)
	}
	return nil
}

// ValidateSnapshot implements checkpoint.Validator by forwarding to
// both members, so a fused misconfigured window still fails at build
// time under checkpointing.
func (f *fusedOp) ValidateSnapshot() error {
	for _, op := range []engine.Operator{f.u, f.v} {
		if v, ok := op.(checkpoint.Validator); ok {
			if err := v.ValidateSnapshot(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot implements checkpoint.Snapshotter: both members' states are
// framed (presence flag + payload) in upstream-then-downstream order,
// so a fused pair checkpoints exactly what its unfused form would.
func (f *fusedOp) Snapshot(enc *checkpoint.Encoder) error {
	for _, op := range []engine.Operator{f.u, f.v} {
		s, ok := op.(checkpoint.Snapshotter)
		enc.Bool(ok)
		if !ok {
			continue
		}
		if err := s.Snapshot(enc); err != nil {
			return err
		}
	}
	return nil
}

// Restore implements checkpoint.Snapshotter.
func (f *fusedOp) Restore(dec *checkpoint.Decoder) error {
	for _, op := range []engine.Operator{f.u, f.v} {
		if !dec.Bool() {
			continue
		}
		s, ok := op.(checkpoint.Snapshotter)
		if !ok {
			return fmt.Errorf("fuse: snapshot has state for a member that is not a Snapshotter")
		}
		if err := s.Restore(dec); err != nil {
			return err
		}
	}
	return dec.Err()
}

// OnWatermark implements engine.WatermarkHandler, upstream first.
func (f *fusedOp) OnWatermark(c engine.Collector, wm int64) error {
	if h, ok := f.u.(engine.WatermarkHandler); ok {
		cc := f.chain(c)
		if err := cc.done(h.OnWatermark(cc, wm)); err != nil {
			return err
		}
	}
	if h, ok := f.v.(engine.WatermarkHandler); ok {
		return h.OnWatermark(c, wm)
	}
	return nil
}

// chainCollector routes the producer's emissions straight into the
// consumer's Process. pool is the free list of the rows u borrows to
// emit into v: they never reach the engine, v sees each as its input,
// valid until v's Process returns, and the row then goes back to pool.
// Rows u puts through Out reach v the same way, materialised by the
// embedded RowOut.
type chainCollector struct {
	engine.RowOut
	downstream engine.Operator
	out        engine.Collector
	pool       *tuple.Pool
	err        error
}

// Borrow implements engine.Collector from the fused pair's own pool, so
// fused operators keep the zero-allocation emit path.
func (c *chainCollector) Borrow() *tuple.Tuple { return c.pool.Get() }

// process feeds one row to the consumer, unless it already failed.
func (c *chainCollector) process(t *tuple.Tuple) {
	if c.err == nil {
		c.err = c.downstream.Process(c.out, t)
	}
}

// done ends one call of the producer that returned err: its last put
// row reaches the consumer, and the first error wins.
func (c *chainCollector) done(err error) error {
	c.Drain()
	if err != nil {
		return err
	}
	return c.err
}

// EmitWatermark implements engine.Collector by passing the punctuation
// through to the real collector (the engine broadcasts task-level
// watermarks itself; a fused member emitting one reaches the same
// consumers the fused task feeds).
func (c *chainCollector) EmitWatermark(wm int64) { c.out.EmitWatermark(wm) }

// Send implements engine.Collector: the tuple is processed synchronously
// by the fused consumer and then released (the consumer's own emissions
// went to the real collector during Process). A row that did not come
// from the pair's pool — u forwarding its own input — is left alone.
func (c *chainCollector) Send(t *tuple.Tuple) {
	c.Drain()
	c.process(t)
	t.Release()
}
