package main

import (
	"fmt"
	"io"
	"time"

	"briskstream/internal/engine"
	"briskstream/internal/graph"
	"briskstream/internal/tuple"
)

// dispatchTopology is spout -> copy -> sink with scalar operators: one
// integer per tuple, so what it costs is the engine's own emit,
// dispatch, transfer and recycle.
func dispatchTopology(n int) (engine.Topology, error) {
	g := graph.New("dispatch")
	for _, node := range []*graph.Node{
		{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}},
		{Name: "copy", Selectivity: map[string]float64{"default": 1}},
		{Name: "sink", IsSink: true},
	} {
		if err := g.AddNode(node); err != nil {
			return engine.Topology{}, err
		}
	}
	for _, e := range []graph.Edge{
		{From: "spout", To: "copy", Stream: "default"},
		{From: "copy", To: "sink", Stream: "default"},
	} {
		if err := g.AddEdge(e); err != nil {
			return engine.Topology{}, err
		}
	}
	i := 0
	return engine.Topology{
		App: g,
		Spouts: map[string]func() engine.Spout{"spout": func() engine.Spout {
			return engine.SpoutFunc(func(c engine.Collector) error {
				if i >= n {
					return io.EOF
				}
				out := c.Borrow()
				out.AppendInt(int64(i))
				i++
				c.Send(out)
				return nil
			})
		}},
		Operators: map[string]func() engine.Operator{
			"copy": func() engine.Operator {
				return engine.OperatorFunc(func(c engine.Collector, t *tuple.Tuple) error {
					out := c.Borrow()
					out.AppendInt(t.Int(0))
					c.Send(out)
					return nil
				})
			},
			"sink": func() engine.Operator {
				return engine.OperatorFunc(func(engine.Collector, *tuple.Tuple) error { return nil })
			},
		},
	}, nil
}

func microEngine(rep *report) error {
	const n = 1 << 19
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		topo, err := dispatchTopology(n)
		if err != nil {
			return fmt.Errorf("engine.dispatch_ns: %w", err)
		}
		e, err := engine.New(topo, engine.DefaultConfig())
		if err != nil {
			return fmt.Errorf("engine.dispatch_ns: %w", err)
		}
		res, err := e.Run(0)
		if err != nil {
			return fmt.Errorf("engine.dispatch_ns: %w", err)
		}
		for _, err := range res.Errors {
			return fmt.Errorf("engine.dispatch_ns: %w", err)
		}
		best = min(best, res.Duration)
	}
	rep.set("engine.dispatch_ns", float64(best)/n)

	const ops = 1 << 20
	tm := engine.NewTimers()
	at, fired := int64(0), 0
	var err error
	rep.set("engine.timers_ns", fastest(ops, func() {
		for i := 0; i < ops && err == nil; i++ {
			at++
			tm.RegisterEvent(at)
			err = tm.AdvanceWatermark(at, func(int64) error { fired++; return nil })
		}
	}))
	if err != nil || fired != 3*ops {
		return fmt.Errorf("engine.timers_ns: fired %d of %d timers: %v", fired, 3*ops, err)
	}
	return nil
}
