package baseline

// The emulated execution classes keep one guarantee — the decorated run
// delivers the same sink multiset as the plain engine — and pay for it
// where a distributed engine would: every edge pointer-passing, one
// queue insertion per tuple, allocations per hop.

import (
	"fmt"
	"io"
	"testing"
	"time"

	"briskstream/internal/apps"
	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
	"briskstream/internal/tuple"
)

// limitSpout bounds a replayable app spout to a finite stream.
type limitSpout struct {
	engine.ReplayableSpout
	limit int64
}

func (s *limitSpout) Next(c engine.Collector) error {
	if s.Offset() >= s.limit {
		return io.EOF
	}
	return s.ReplayableSpout.Next(c)
}

// recordingSink counts every received tuple by (values, event) and
// snapshots the multiset, so sink output compares exactly across runs.
type recordingSink struct{ got map[string]int64 }

func (s *recordingSink) Process(c engine.Collector, t *tuple.Tuple) error {
	s.got[fmt.Sprintf("%v@%d", t, t.Event)]++
	return nil
}

func (s *recordingSink) Snapshot(enc *checkpoint.Encoder) error {
	checkpoint.SaveMapOrdered(enc, s.got,
		func(e *checkpoint.Encoder, k string) { e.String(k) },
		func(e *checkpoint.Encoder, v int64) { e.Int64(v) })
	return nil
}

func (s *recordingSink) Restore(dec *checkpoint.Decoder) error {
	return checkpoint.LoadMapOrdered(dec, s.got, (*checkpoint.Decoder).String, (*checkpoint.Decoder).Int64)
}

// boundedApp is one packaged app over a single shared source instance:
// seeking it back to 0 replays the identical stream into the next run.
type boundedApp struct {
	app   *apps.App
	src   engine.ReplayableSpout
	limit int64
	repl  map[string]int
}

func newBoundedApp(t *testing.T, name string, limit int64, repl map[string]int) *boundedApp {
	t.Helper()
	a := apps.ByName(name)
	src, ok := a.Spouts["spout"]().(engine.ReplayableSpout)
	if !ok {
		t.Fatalf("%s spout is not replayable", name)
	}
	repl["spout"] = 1
	return &boundedApp{app: a, src: src, limit: limit, repl: repl}
}

// topology rewinds the source and returns the app wired to it and to a
// fresh recording sink.
func (b *boundedApp) topology(t *testing.T) (engine.Topology, *recordingSink) {
	t.Helper()
	if err := b.src.SeekTo(0); err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{got: map[string]int64{}}
	ops := map[string]func() engine.Operator{}
	for name, mk := range b.app.Operators {
		ops[name] = mk
	}
	ops["sink"] = func() engine.Operator { return sink }
	return engine.Topology{
		App:         b.app.Graph,
		Spouts:      map[string]func() engine.Spout{"spout": func() engine.Spout { return &limitSpout{b.src, b.limit} }},
		Operators:   ops,
		Replication: b.repl,
	}, sink
}

func runToEOF(t *testing.T, topo engine.Topology, cfg engine.Config) *engine.Result {
	t.Helper()
	e, err := engine.New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("run errors: %v", res.Errors)
	}
	return res
}

func diffMultisets(want, got map[string]int64) string {
	for k, n := range want {
		if got[k] != n {
			return fmt.Sprintf("key %q: want %d, got %d", k, n, got[k])
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			return fmt.Sprintf("unexpected key %q (count %d)", k, n)
		}
	}
	return ""
}

// TestOnEngineSameSinkMultiset: WC (tumbling windows, event timers), TW
// (session windows, watermark handlers) and FD (plain keyed state) run
// as Storm would deliver exactly what the plain engine delivers.
func TestOnEngineSameSinkMultiset(t *testing.T) {
	cases := []*boundedApp{
		newBoundedApp(t, "WC", 8000, map[string]int{"parser": 1, "splitter": 2, "counter": 2, "sink": 1}),
		newBoundedApp(t, "TW", 20000, map[string]int{"sessionize": 2, "rank": 1, "sink": 1}),
		newBoundedApp(t, "FD", 20000, map[string]int{"parser": 1, "predict": 2, "sink": 1}),
	}
	for _, b := range cases {
		t.Run(b.app.Name, func(t *testing.T) {
			topo, plain := b.topology(t)
			runToEOF(t, topo, engine.DefaultConfig())
			if len(plain.got) == 0 {
				t.Fatal("plain run produced no sink output")
			}
			topo, storm := b.topology(t)
			topo, cfg := Storm().OnEngine(topo)
			runToEOF(t, topo, cfg)
			if d := diffMultisets(plain.got, storm.got); d != "" {
				t.Fatalf("Storm-class output differs from the plain engine's: %s", d)
			}
		})
	}
}

// TestOnEngineRecoversThroughDecorator: a checkpointed WC run behind the
// decorator, killed mid-flight and restored, still matches the plain
// failure-free run — Snapshotter and Validator are forwarded.
func TestOnEngineRecoversThroughDecorator(t *testing.T) {
	b := newBoundedApp(t, "WC", 8000, map[string]int{"parser": 1, "splitter": 2, "counter": 2, "sink": 1})
	topo, plain := b.topology(t)
	runToEOF(t, topo, engine.DefaultConfig())

	topo, sink := b.topology(t)
	topo, cfg := Storm().OnEngine(topo)
	co := checkpoint.NewCoordinator(nil)
	cfg.Checkpoint = co
	cfg.CheckpointInterval = 2 * time.Millisecond
	e, err := engine.New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *engine.Result, 1)
	go func() {
		r, _ := e.Run(0)
		done <- r
	}()
	for deadline := time.Now().Add(30 * time.Second); co.Completed() < 2 && time.Now().Before(deadline); {
		select {
		case r := <-done:
			// Finished before the kill fired; recovery below still
			// restores and replays the tail.
			done <- r
			deadline = time.Now()
		default:
			time.Sleep(500 * time.Microsecond)
		}
	}
	e.Kill()
	if r := <-done; len(r.Errors) != 0 {
		t.Fatalf("killed run errors: %v", r.Errors)
	}
	if co.Completed() == 0 {
		t.Fatal("no checkpoint completed before the kill")
	}
	if _, err := e.Restore(); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("recovery run errors: %v", res.Errors)
	}
	if d := diffMultisets(plain.got, sink.got); d != "" {
		t.Fatalf("recovered Storm-class output differs from the plain failure-free run: %s", d)
	}
}

// batchCounter is a batch-aware pass-through that counts how it was fed.
type batchCounter struct{ rows, batches *int }

func (o batchCounter) Process(c engine.Collector, t *tuple.Tuple) error {
	*o.rows++
	out := c.Borrow()
	out.CopyValuesFrom(t)
	c.Send(out)
	return nil
}

func (o batchCounter) ProcessBatch(c engine.Collector, b *tuple.Batch) error {
	*o.batches++
	for r := 0; r < b.Len(); r++ {
		out := c.Borrow()
		b.CopyRowTo(r, out)
		c.Send(out)
	}
	return nil
}

// TestOnEngineEdgesPointerPassing: behind the decorator no operator is
// batch-aware, so no edge is columnar — inner ProcessBatch is never
// called — and with batch size 1 every tuple is its own queue insertion.
func TestOnEngineEdgesPointerPassing(t *testing.T) {
	const n = 5000
	run := func(on func(engine.Topology) (engine.Topology, engine.Config), batchAware bool) (rows, batches int, res *engine.Result) {
		sent := 0
		topo, cfg := on(engine.Topology{
			App: chain(t),
			Spouts: map[string]func() engine.Spout{"spout": func() engine.Spout {
				return engine.SpoutFunc(func(c engine.Collector) error {
					if sent == n {
						return io.EOF
					}
					sent++
					out := c.Borrow()
					out.AppendInt(int64(sent))
					c.Send(out)
					return nil
				})
			}},
			Operators: map[string]func() engine.Operator{
				"worker": func() engine.Operator { return batchCounter{&rows, &batches} },
				"sink":   func() engine.Operator { return batchCounter{new(int), new(int)} },
			},
		})
		for name, mk := range topo.Operators {
			if _, ok := mk().(engine.BatchOperator); ok != batchAware {
				t.Errorf("%s: BatchOperator = %v, want %v", name, ok, batchAware)
			}
		}
		return rows, batches, runToEOF(t, topo, cfg)
	}

	rows, batches, res := run(func(topo engine.Topology) (engine.Topology, engine.Config) {
		return topo, engine.DefaultConfig()
	}, true)
	if rows != 0 || batches == 0 {
		t.Errorf("plain engine fed the batch-aware worker %d rows and %d batches, want batches only", rows, batches)
	}
	if moved := uint64(2 * n); res.QueuePuts*16 > moved {
		t.Errorf("plain engine: %d queue insertions for %d tuples, want jumbo amortization", res.QueuePuts, moved)
	}

	rows, batches, res = run(Storm().OnEngine, false)
	if rows != n || batches != 0 {
		t.Errorf("decorated worker got %d rows and %d batches, want %d rows only", rows, batches, n)
	}
	// One insertion per data tuple, plus a handful of punctuations.
	if moved := uint64(2 * n); res.QueuePuts < moved || res.QueuePuts > moved+16 {
		t.Errorf("decorated run: %d queue insertions for %d tuples, want one each", res.QueuePuts, moved)
	}
}

// TestOnEngineAllocatesPerTuple is a documented contrast, not a ceiling:
// the Storm class (de)serializes and copies every input tuple, so it
// must allocate. If this drops to zero the emulation stopped emulating.
func TestOnEngineAllocatesPerTuple(t *testing.T) {
	topo, _ := Storm().OnEngine(engine.Topology{Operators: map[string]func() engine.Operator{
		"op": func() engine.Operator {
			return engine.OperatorFunc(func(engine.Collector, *tuple.Tuple) error { return nil })
		},
	}})
	op := topo.Operators["op"]()
	in := tuple.New("the quick brown fox", int64(100042))
	avg := testing.AllocsPerRun(2000, func() {
		if err := op.Process(nil, in); err != nil {
			t.Fatal(err)
		}
	})
	if avg < 1 {
		t.Errorf("Storm-class Process allocates %.2f/op; the copy/serialize emulation should allocate", avg)
	}
}
