package engine

// Hand-over: a batch operator that forwards all of its input batch to a
// shared stream passes the batch itself on instead of copying
// its rows. Consumers see exactly what a row-by-row copy would have
// delivered — payload, metadata, order, and the watermarks between —
// emits after the forward in the same call keep their order, the
// operator's input stays intact, a pass-through puts no more jumbos
// than it receives, and the steady state allocates nothing. Beside it,
// the linger deadline: one task field, no timer, covers every out-edge,
// and a batch opened after it was set still flushes once Linger old.
// And the spout's sampling counters stamp exactly rows k, 2k, …

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"briskstream/internal/graph"
	"briskstream/internal/tuple"
)

// rowForwarder is the collector's bulk-forward method (vec.RowForwarder).
type rowForwarder interface {
	ForwardRows(b *tuple.Batch, sel []int32, stream tuple.StreamID)
}

// fwdOp forwards its input batch on the default stream. Mode "forward"
// forwards every row with ForwardRows, "sel" forwards the rows holding
// a value not divisible by 3 through a selection vector; "copy" and
// "copy-sel" are their references, sending the same rows one by one
// through Borrow/Send. A set pre emits a marker row through Send before
// the forward; post emits one after it: "send", "out" (a put row) or
// "wm" (a watermark at the batch's last event time). Every call checks
// that its input batch reads the same after the forward as before, and
// records the batch it was given.
type fwdOp struct {
	mode, post string
	pre        bool
	one        OneRow
	mu         sync.Mutex
	inputs     map[*tuple.Batch]bool
}

func (o *fwdOp) Process(c Collector, t *tuple.Tuple) error { return o.one.Process(o, c, t) }

func (o *fwdOp) ProcessBatch(c Collector, b *tuple.Batch) error {
	o.mu.Lock()
	if o.inputs == nil {
		o.inputs = map[*tuple.Batch]bool{}
	}
	o.inputs[b] = true
	o.mu.Unlock()
	if o.pre {
		o.marker(c, b, -1)
	}
	before := batchRows(b)
	var sel []int32
	if o.mode == "sel" || o.mode == "copy-sel" {
		for r := 0; r < b.Len(); r++ {
			if b.Int(0, r)%3 != 0 {
				sel = append(sel, int32(r))
			}
		}
	}
	switch o.mode {
	case "forward":
		c.(rowForwarder).ForwardRows(b, nil, tuple.DefaultStreamID)
	case "sel":
		c.(rowForwarder).ForwardRows(b, sel, tuple.DefaultStreamID)
	case "copy", "copy-sel":
		for r := 0; r < b.Len(); r++ {
			if o.mode == "copy" || slices.Contains(sel, int32(r)) {
				out := c.Borrow()
				b.CopyRowTo(r, out)
				c.Send(out)
			}
		}
	}
	if after := batchRows(b); !slices.Equal(before, after) {
		return fmt.Errorf("input batch changed under the forward: %v, then %v", before, after)
	}
	switch o.post {
	case "send":
		o.marker(c, b, -2)
	case "out":
		ob := c.Out(tuple.DefaultStreamID)
		ob.PutInt(-3)
		ob.EndRowFrom(b, 0)
	case "wm":
		c.EmitWatermark(b.Event(b.Len() - 1))
	}
	return nil
}

// marker sends one row holding v with row 0's metadata.
func (o *fwdOp) marker(c Collector, b *tuple.Batch, v int64) {
	out := c.Borrow()
	out.AppendInt(v)
	b.StampMeta(0, out)
	c.Send(out)
}

// batchRows renders every row of b, payload and metadata.
func batchRows(b *tuple.Batch) []string {
	rows := make([]string, b.Len())
	var row tuple.Tuple
	for r := range rows {
		b.CopyRowTo(r, &row)
		rows[r] = fmt.Sprintf("%v ts=%d ev=%d trace=%d/%d", &row, row.Ts.UnixNano(), row.Event, row.TraceID, row.TraceOrigin)
	}
	return rows
}

// ptrSink is a logSink that also records the batches it was given.
type ptrSink struct {
	*logSink
	mu   sync.Mutex
	seen map[*tuple.Batch]bool
}

func (s *ptrSink) ProcessBatch(c Collector, b *tuple.Batch) error {
	s.mu.Lock()
	s.seen[b] = true
	s.mu.Unlock()
	return s.logSink.ProcessBatch(c, b)
}

// runFwd runs outSpout(n) -> op -> sink over the route to the end and
// returns the sinks' logs and how many of the batches the sinks got
// were batches op had been given: handed over, not copied.
func runFwd(t *testing.T, rt outRoute, op *fwdOp, n int64) (logs [][]string, handed, total int) {
	t.Helper()
	g := graph.New("handover")
	for _, err := range []error{
		g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}}),
		g.AddNode(&graph.Node{Name: "op", Selectivity: map[string]float64{"default": 1}}),
		g.AddNode(&graph.Node{Name: "sink", IsSink: true}),
		g.AddEdge(graph.Edge{From: "spout", To: "op", Stream: "default"}),
		g.AddEdge(graph.Edge{From: "op", To: "sink", Stream: "default", Partitioning: rt.part, KeyField: 0}),
		g.Validate(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	var sinks []*ptrSink
	e, err := New(Topology{
		App:    g,
		Spouts: map[string]func() Spout{"spout": outSpout(n)},
		Operators: map[string]func() Operator{
			"op": func() Operator { return op },
			"sink": func() Operator {
				s := &ptrSink{logSink: &logSink{}, seen: map[*tuple.Batch]bool{}}
				sinks = append(sinks, s)
				return s
			},
		},
		Replication: map[string]int{"sink": rt.repl},
	}, outConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("%s %s: errors: %v", rt.name, op.mode, res.Errors)
	}
	for _, s := range sinks {
		logs = append(logs, s.log)
		for b := range s.seen {
			total++
			if op.inputs[b] {
				handed++
			}
		}
	}
	return logs, handed, total
}

// TestHandoverMatchesCopy: a forward of every row reaches each consumer
// exactly as the same rows sent one by one do — payload, metadata,
// order and watermarks — whether the batch is handed over (shuffle-1,
// fields-1, and broadcast-2, where both replicas get the one batch) or
// copied (fields-3), and so does a forward through a selection, which
// always copies. The operator reads its input batch after every
// forward and finds it intact (fwdOp fails the run otherwise).
func TestHandoverMatchesCopy(t *testing.T) {
	noGoroutineLeak(t)
	const n = 500
	for _, rt := range outRoutes {
		for _, m := range []struct{ mode, ref string }{{"forward", "copy"}, {"sel", "copy-sel"}} {
			t.Run(rt.name+"/"+m.mode, func(t *testing.T) {
				want, _, _ := runFwd(t, rt, &fwdOp{mode: m.ref}, n)
				got, handed, total := runFwd(t, rt, &fwdOp{mode: m.mode}, n)
				for i := range want {
					if len(want[i]) == 0 {
						t.Fatalf("sink#%d got nothing", i)
					}
					if !slices.Equal(got[i], want[i]) {
						t.Errorf("sink#%d: %s differs from %s:\n got %v\nwant %v", i, m.mode, m.ref, got[i], want[i])
					}
				}
				switch shared := rt.repl == 1 || rt.part == graph.Broadcast; {
				case shared && m.mode == "forward" && handed != total:
					t.Errorf("%d of %d batches reached the sink by reference, want all", handed, total)
				case (!shared || m.mode == "sel") && handed != 0:
					t.Errorf("%d of %d batches reached the sink by reference, want none", handed, total)
				}
			})
		}
	}
}

// TestHandoverKeepsEmissionOrder: a row emitted on the edge before the
// forward arrives before the forwarded rows, and a Send, Out or
// EmitWatermark after the forward in the same call arrives after them —
// exactly as with the forward copied row by row.
func TestHandoverKeepsEmissionOrder(t *testing.T) {
	noGoroutineLeak(t)
	const n = 300
	rt := outRoutes[0] // shuffle-1: the forward alone is handed over
	for _, post := range []string{"", "send", "out", "wm"} {
		t.Run("post="+post, func(t *testing.T) {
			want, _, _ := runFwd(t, rt, &fwdOp{mode: "copy", pre: true, post: post}, n)
			got, handed, total := runFwd(t, rt, &fwdOp{mode: "forward", pre: true, post: post}, n)
			if !slices.Equal(got[0], want[0]) {
				t.Errorf("forward differs from copy:\n got %v\nwant %v", got[0], want[0])
			}
			if post == "" && handed == 0 {
				t.Errorf("no batch of %d was handed over", total)
			}
		})
	}
}

// handoverHarness builds spout -> fwd -> sink, the sink a single batch
// operator built by mk, and returns the engine, the three tasks and a
// collector for fwd, which the tests drive through consumeJumbo on the
// calling goroutine.
func handoverHarness(t *testing.T, cfg Config, op Operator, mk func() Operator) (e *Engine, sp, fwd, sink *task, c *collector) {
	t.Helper()
	g := graph.New("handover")
	for _, err := range []error{
		g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}}),
		g.AddNode(&graph.Node{Name: "fwd", Selectivity: map[string]float64{"default": 1}}),
		g.AddNode(&graph.Node{Name: "sink", IsSink: true}),
		g.AddEdge(graph.Edge{From: "spout", To: "fwd", Stream: "default"}),
		g.AddEdge(graph.Edge{From: "fwd", To: "sink", Stream: "default"}),
		g.Validate(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	e, err := New(Topology{
		App:       g,
		Spouts:    map[string]func() Spout{"spout": func() Spout { return SpoutFunc(func(Collector) error { return io.EOF }) }},
		Operators: map[string]func() Operator{"fwd": func() Operator { return op }, "sink": mk},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, fwd, sink = e.byOp["spout"][0], e.byOp["fwd"][0], e.byOp["sink"][0]
	return e, sp, fwd, sink, &collector{e: e, t: fwd}
}

// passBatch forwards every input batch whole: the lean pass-through.
type passBatch struct{ one OneRow }

func (p *passBatch) Process(c Collector, t *tuple.Tuple) error { return p.one.Process(p, c, t) }

func (p *passBatch) ProcessBatch(c Collector, b *tuple.Batch) error {
	c.(rowForwarder).ForwardRows(b, nil, tuple.DefaultStreamID)
	return nil
}

// fillInts appends rows first, first+1, … to b up to its capacity, each
// with event time equal to its value.
func fillInts(b *tuple.Batch, first int64) {
	row := tuple.New(int64(0))
	for v := first; !b.Full(); v++ {
		row.Reset()
		row.AppendInt(v)
		row.Event = v
		b.Append(row)
	}
}

// TestHandoverPutsNoExtraJumbos: a pass-through fed full batches, each
// with a watermark trailer, puts exactly one jumbo downstream per jumbo
// it receives — the batch it was given, carrying the watermark.
func TestHandoverPutsNoExtraJumbos(t *testing.T) {
	noGoroutineLeak(t)
	cfg := DefaultConfig()
	cfg.LatencySampleEvery = 0
	e, sp, fwd, sink, c := handoverHarness(t, cfg, &passBatch{}, func() Operator { return batchSink{} })
	const jumbos = 200
	for i := int64(0); i < jumbos; i++ {
		b := tuple.NewBatch(cfg.BatchSize)
		fillInts(b, i*int64(cfg.BatchSize))
		wm := (i + 1) * int64(cfg.BatchSize)
		if err := e.consumeJumbo(fwd, c, tuple.Jumbo{Producer: sp.id, Batch: b, Punct: tuple.Punct{Kind: tuple.PunctWatermark, Event: wm}}); err != nil {
			t.Fatal(err)
		}
		j, ok, _ := sink.in.TryGet()
		switch {
		case !ok:
			t.Fatalf("jumbo %d: nothing reached the sink", i)
		case j.Batch != b || j.Punct.Kind != tuple.PunctWatermark || j.Punct.Event != wm:
			t.Fatalf("jumbo %d: the sink got batch %p (want %p) with trailer %+v", i, j.Batch, b, j.Punct)
		}
		if _, more, _ := sink.in.TryGet(); more {
			t.Fatalf("jumbo %d: a second jumbo reached the sink", i)
		}
	}
	if puts, _ := sink.in.Stats(); puts != jumbos {
		t.Errorf("%d jumbos put downstream for %d received", puts, jumbos)
	}
}

// wmEmitOp forwards its input whole and, on each watermark, emits one
// more row on the same stream: "out" puts a one-string row, a layout
// other than the forwarded rows'; "send" sends a one-int row and
// "forward" forwards one from a batch of its own, both of the forwarded
// rows' layout.
type wmEmitOp struct {
	passBatch
	emit string
}

func (o *wmEmitOp) OnWatermark(c Collector, wm int64) error {
	meta := tuple.NewBatch(1)
	meta.Append(tuple.New(-wm))
	switch o.emit {
	case "out":
		ob := c.Out(tuple.DefaultStreamID)
		ob.PutStr(fmt.Sprint("wm ", wm))
		ob.EndRowFrom(meta, 0)
	case "send":
		sendInt(c, -wm)
	case "forward":
		c.(rowForwarder).ForwardRows(meta, nil, tuple.DefaultStreamID)
	}
	return nil
}

// TestAdoptedBatchThenEmitInSameStep: after a batch is handed over, the
// input jumbo's watermark makes the operator emit one more row on the
// same edge in the same step. A row of another layout after a batch
// whose rows were put upstream starts a fresh batch instead of failing
// the task, and a row of the same layout after a full batch starts a
// fresh one instead of overrunning it.
func TestAdoptedBatchThenEmitInSameStep(t *testing.T) {
	noGoroutineLeak(t)
	cfg := DefaultConfig()
	cfg.LatencySampleEvery = 0
	const wm = 7
	for _, tc := range []struct {
		emit, input string
		last        string // the sink's last row
	}{
		{"out", "put-3", "[wm 7]"},
		{"send", "full", "[-7]"},
		{"forward", "full", "[-7]"},
	} {
		t.Run(tc.emit+"/"+tc.input, func(t *testing.T) {
			ls := &logSink{}
			e, sp, fwd, sink, c := handoverHarness(t, cfg, &wmEmitOp{emit: tc.emit}, func() Operator { return ls })
			b := tuple.NewBatch(cfg.BatchSize)
			if tc.input == "full" {
				fillInts(b, 0)
			} else {
				src := tuple.NewBatch(1)
				src.Append(tuple.New(int64(0)))
				for v := int64(1); v <= 3; v++ {
					b.ReadyFor(tuple.DefaultStreamID)
					b.PutInt(v)
					b.EndRowFrom(src, 0)
				}
			}
			n := b.Len()
			if err := e.consumeJumbo(fwd, c, tuple.Jumbo{Producer: sp.id, Batch: b, Punct: tuple.Punct{Kind: tuple.PunctWatermark, Event: wm}}); err != nil {
				t.Fatal(err)
			}
			if c.fail != nil {
				t.Fatal(c.fail)
			}
			inlineDrain(e, []*task{sink})()
			got := ls.rows()
			if len(got) != n+1 || !strings.HasPrefix(got[n], tc.last+" ") {
				t.Errorf("sink rows = %q, want the %d input rows and then %s", got, n, tc.last)
			}
		})
	}
}

// failingPass forwards its input whole and then fails the call.
type failingPass struct{ passBatch }

func (p *failingPass) ProcessBatch(c Collector, b *tuple.Batch) error {
	p.passBatch.ProcessBatch(c, b)
	return errors.New("operator failed after forwarding")
}

// TestPendingForwardDiesWithFailedTask: an operator call that forwards
// its input whole and then fails hands nothing over — the batch goes
// back to its producer and no row of it is left open downstream.
func TestPendingForwardDiesWithFailedTask(t *testing.T) {
	noGoroutineLeak(t)
	cfg := DefaultConfig()
	e, sp, fwd, _, c := handoverHarness(t, cfg, &failingPass{}, func() Operator { return batchSink{} })
	b := tuple.NewBatch(cfg.BatchSize)
	fillInts(b, 0)
	if err := e.consumeJumbo(fwd, c, tuple.Jumbo{Producer: sp.id, Batch: b}); err == nil {
		t.Fatal("the operator's error was lost")
	}
	if c.fwdB != nil {
		t.Error("the forward is still pending after the call failed")
	}
	if open := fwd.outList[0].batch; open != nil {
		t.Errorf("%d rows left open on the out-edge", open.Len())
	}
	if got, ok := sp.out[fwd.id].free.TryGet(); !ok || got != b {
		t.Error("the input batch did not go back to its producer")
	}
}

// TestHandoverAllocFree: handing full batches over, and the batches
// circulating back through the free rings, allocates nothing in steady
// state.
func TestHandoverAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LatencySampleEvery = 0
	e, sp, fwd, sink, c := handoverHarness(t, cfg, &passBatch{}, func() Operator { return batchSink{} })
	in := sp.out[fwd.id]
	drain := inlineDrain(e, []*task{sink})
	row := tuple.New(int64(0))
	step := func() {
		b, ok := in.free.TryGet()
		if !ok {
			b = tuple.NewBatch(cfg.BatchSize)
		}
		for !b.Full() {
			b.Append(row)
		}
		if err := e.consumeJumbo(fwd, c, tuple.Jumbo{Producer: sp.id, Batch: b}); err != nil {
			panic(err)
		}
		drain()
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg > 0 {
		t.Errorf("hand-over allocates %.4f per batch, want 0", avg)
	}
	if got, want := e.sink.Load(), uint64(1101*cfg.BatchSize); got != want {
		t.Errorf("sink got %d rows, want %d", got, want)
	}
}

// TestLingerArmsNoTimer: however many batches the edges open, linger
// registers no processing-time timer; the task's one lingerAt deadline
// covers them all.
func TestLingerArmsNoTimer(t *testing.T) {
	noGoroutineLeak(t)
	cfg := DefaultConfig()
	cfg.Linger = time.Hour // nothing fires during the test
	c, drain := allocHarness(t, cfg, 4, graph.Fields, func() Operator { return batchSink{} })
	for i := 0; i < 200*cfg.BatchSize; i++ {
		sendInt(c, int64(i))
		if i%cfg.BatchSize == 0 {
			drain()
		}
	}
	if c.fail != nil {
		t.Fatal(c.fail)
	}
	if n := len(c.t.tm.proc); n != 0 {
		t.Errorf("%d processing-time timers pending after linger batches, want 0", n)
	}
	if c.t.lingerAt == 0 {
		t.Error("lingerAt unset with batches open")
	}
}

// TestLingerCoversBatchOpenedAfterArming: a batch opened while the
// linger deadline is set for an earlier batch is not flushed early when
// that deadline passes, but once it is Linger old; and a batch opened
// after the deadline fired with nothing open sets a new one.
func TestLingerCoversBatchOpenedAfterArming(t *testing.T) {
	noGoroutineLeak(t)
	const linger = 40 * time.Millisecond
	cfg := DefaultConfig()
	cfg.Linger = linger
	c, drain := allocHarness(t, cfg, 1, graph.Shuffle, func() Operator { return batchSink{} })
	e, tk := c.e, c.t
	delivered := func() uint64 { drain(); return e.sink.Load() }
	// The harness settles before every flush and timer poll, as the
	// engine's task steps do: no edge batch may leave while the
	// collector still writes into it.
	fireAt := func(at time.Time) {
		t.Helper()
		time.Sleep(time.Until(at))
		c.settle()
		if err := e.fireDueTimers(tk, c); err != nil {
			t.Fatal(err)
		}
	}

	// Batch A sets the linger deadline, then flushes before it is due.
	aOpen := time.Now()
	sendInt(c, 1)
	c.settle()
	aAt := tk.lingerAt
	e.flushAll(tk)
	if got := delivered(); got != 1 {
		t.Fatalf("sink got %d rows after the flush, want 1", got)
	}
	// Batch B opens while A's deadline is pending and leaves it as is.
	time.Sleep(linger / 2)
	bOpen := time.Now()
	sendInt(c, 2)
	c.settle()
	if tk.lingerAt == 0 || tk.lingerAt != aAt {
		t.Fatalf("lingerAt %d after B opened, want A's %d", tk.lingerAt, aAt)
	}
	// A's deadline passes while B is younger than Linger: B stays open
	// and the deadline moves to B's.
	fireAt(aOpen.Add(linger + time.Millisecond))
	if time.Since(bOpen) < linger {
		if got := delivered(); got != 1 {
			t.Errorf("B flushed when A's deadline fired, %v after it opened", time.Since(bOpen))
		}
		if want := tk.outList[0].openNs + int64(linger); tk.lingerAt != want {
			t.Errorf("lingerAt %d after the early fire, want B's %d", tk.lingerAt, want)
		}
	} else {
		t.Logf("the first fire came %v late; the early-fire check is skipped", time.Since(aOpen)-linger)
	}
	// Once B is Linger old, the fire flushes it.
	fireAt(bOpen.Add(linger + 2*time.Millisecond))
	if got := delivered(); got != 2 {
		t.Errorf("sink got %d rows once B was %v old, want 2", got, time.Since(bOpen))
	}
	if tk.lingerAt != 0 {
		t.Errorf("lingerAt %d with nothing open, want 0", tk.lingerAt)
	}
	// Batch C opens after the deadline fired: it sets a fresh one.
	cOpen := time.Now()
	sendInt(c, 3)
	c.settle()
	if tk.lingerAt == 0 {
		t.Fatal("lingerAt unset after C opened")
	}
	fireAt(cOpen.Add(linger + 2*time.Millisecond))
	if got := delivered(); got != 3 {
		t.Errorf("sink got %d rows once C was %v old, want 3", got, time.Since(cOpen))
	}
}

// TestLingerOneDeadlineCoversEdges: batches open on two out-edges
// Linger/2 apart share the task's one linger deadline. Its first fire
// flushes only the older batch and moves the deadline to the younger
// one's, which flushes at that deadline.
func TestLingerOneDeadlineCoversEdges(t *testing.T) {
	noGoroutineLeak(t)
	const linger = 40 * time.Millisecond
	cfg := DefaultConfig()
	cfg.Linger = linger
	c, drain := allocHarness(t, cfg, 2, graph.Shuffle, func() Operator { return batchSink{} })
	e, tk := c.e, c.t
	delivered := func() uint64 { drain(); return e.sink.Load() }
	fireAt := func(at time.Time) {
		t.Helper()
		time.Sleep(time.Until(at))
		c.settle()
		if err := e.fireDueTimers(tk, c); err != nil {
			t.Fatal(err)
		}
	}
	// openEdge sends one row and returns the edge whose batch it opened
	// (shuffle deals consecutive rows to different edges).
	openEdge := func(v int64) *outEdge {
		t.Helper()
		sendInt(c, v)
		c.settle()
		for _, oe := range tk.outList {
			if oe.batch != nil && oe.batch.Len() == 1 && oe.batch.Int(0, 0) == v {
				return oe
			}
		}
		t.Fatalf("row %d opened no batch", v)
		return nil
	}

	oldOpen := time.Now()
	older := openEdge(1)
	time.Sleep(linger / 2)
	youngOpen := time.Now()
	younger := openEdge(2)
	if older == younger {
		t.Fatal("both rows went to one edge")
	}
	if want := older.openNs + int64(linger); tk.lingerAt != want {
		t.Fatalf("lingerAt %d, want the older batch's deadline %d", tk.lingerAt, want)
	}
	fireAt(oldOpen.Add(linger + time.Millisecond))
	if time.Since(youngOpen) < linger {
		if older.batch != nil || younger.batch == nil {
			t.Errorf("first fire: older open %v, younger open %v; want only the older flushed",
				older.batch != nil, younger.batch != nil)
		}
		if got := delivered(); got != 1 {
			t.Errorf("sink got %d rows after the first fire, want 1", got)
		}
		if want := younger.openNs + int64(linger); tk.lingerAt != want {
			t.Errorf("lingerAt %d after the first fire, want the younger batch's deadline %d", tk.lingerAt, want)
		}
	} else {
		t.Logf("the first fire came %v late; the early-fire check is skipped", time.Since(oldOpen)-linger)
	}
	fireAt(time.Unix(0, younger.openNs+int64(linger)))
	if got := delivered(); got != 2 {
		t.Errorf("sink got %d rows at the younger batch's deadline, want 2", got)
	}
	if tk.lingerAt != 0 {
		t.Errorf("lingerAt %d with nothing open, want 0", tk.lingerAt)
	}
}

// stampLog is a sink that records the values of the rows that arrive
// latency-stamped.
type stampLog struct {
	mu      sync.Mutex
	stamped []int64
}

func (s *stampLog) Process(Collector, *tuple.Tuple) error { return nil }

func (s *stampLog) ProcessBatch(_ Collector, b *tuple.Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for r := 0; r < b.Len(); r++ {
		if !b.Ts(r).IsZero() {
			s.stamped = append(s.stamped, b.Int(0, r))
		}
	}
	return nil
}

// TestLingerRearmsAfterRerun: a run that ends while an edge's linger
// timer is pending leaves no stale arming behind — the next run's
// partial batches still flush after Linger.
func TestLingerRearmsAfterRerun(t *testing.T) {
	noGoroutineLeak(t)
	const n = 5
	cfg := DefaultConfig()
	cfg.Linger = 50 * time.Millisecond
	e := lingerTopology(t, n, cfg)
	// The first run ends long before its batches' linger deadline.
	if _, final := runAndPollSink(t, e, 10*time.Millisecond); final != n {
		t.Fatalf("first run: sink got %d rows, want %d", final, n)
	}
	// lingerTopology's spout emits n rows in its lifetime: give the
	// second run a fresh one.
	e.byOp["spout"][0].spout = e.topo.Spouts["spout"]()
	if mid, _ := runAndPollSink(t, e, 400*time.Millisecond); mid != n {
		t.Errorf("second run: sink saw %d/%d rows mid-run; the partial batches were not linger-flushed", mid, n)
	}
}

// TestLatencySampleEveryStampsEveryKth: with LatencySampleEvery = k the
// spout stamps exactly its rows k, 2k, …, and counts afresh on the next
// Run.
func TestLatencySampleEveryStampsEveryKth(t *testing.T) {
	noGoroutineLeak(t)
	const n, k = 1000, 7
	cfg := DefaultConfig()
	cfg.LatencySampleEvery = k
	sink := &stampLog{}
	e, err := New(Topology{
		App:       pipelineGraph(t),
		Spouts:    map[string]func() Spout{"spout": rewindingSpout(n)},
		Operators: map[string]func() Operator{"double": passthrough, "sink": func() Operator { return sink }},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for v := int64(k - 1); v < n; v += k { // rewindingSpout's row i holds i-1
		want = append(want, v)
	}
	for run := 1; run <= 2; run++ {
		sink.stamped = nil
		res, err := e.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Errors) != 0 {
			t.Fatal(res.Errors)
		}
		slices.Sort(sink.stamped)
		if !slices.Equal(sink.stamped, want) {
			t.Errorf("run %d: stamped rows %v, want %v", run, sink.stamped, want)
		}
	}
}
