package engine

import "testing"

// TestJumboBatchSizeAmortizesQueueOps: larger batches mean fewer queue
// insertions for the same tuple count.
func TestJumboBatchSizeAmortizesQueueOps(t *testing.T) {
	count := func(batch int) uint64 {
		topo := Topology{
			App:       pipelineGraph(t),
			Spouts:    map[string]func() Spout{"spout": boundedSpoutEOF(4096)},
			Operators: map[string]func() Operator{"double": doubler, "sink": sinkOp},
		}
		cfg := DefaultConfig()
		cfg.BatchSize = batch
		e, err := New(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		var puts uint64
		for _, task := range e.tasks {
			if task.in != nil {
				p, _ := task.in.Stats()
				puts += p
			}
		}
		return puts
	}
	single := count(1)
	batched := count(64)
	if batched*16 > single {
		t.Errorf("batch=64 used %d insertions vs %d at batch=1; jumbo tuples should amortize by ~64x", batched, single)
	}
}

// TestStopNilsNothing ensures a second Run on a fresh engine instance is
// not required for correct shutdown bookkeeping (queues closed exactly
// once, counters coherent).
func TestShutdownBookkeeping(t *testing.T) {
	topo := Topology{
		App:       pipelineGraph(t),
		Spouts:    map[string]func() Spout{"spout": boundedSpoutEOF(100)},
		Operators: map[string]func() Operator{"double": doubler, "sink": sinkOp},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	// Every queue must be closed and drained.
	for _, task := range e.tasks {
		if task.in == nil {
			continue
		}
		if task.in.Len() != 0 {
			t.Errorf("task %s queue retains %d batches after shutdown", task.label, task.in.Len())
		}
		puts, gets := task.in.Stats()
		if puts != gets {
			t.Errorf("task %s: %d puts vs %d gets", task.label, puts, gets)
		}
	}
	if res.SinkTuples != 200 {
		t.Errorf("sink tuples = %d", res.SinkTuples)
	}
}
