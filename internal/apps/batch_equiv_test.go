package apps

// Batch-size invariance: one bounded, deterministic topology run three
// ways must deliver identical sink multisets. The reference run puts
// every operator behind baseline's zero-cost wrapper, which hides
// ProcessBatch, so the engine feeds rows to Process and every
// batch-aware operator's one body sees one-row batches (engine.OneRow);
// scalar operators run as always. The shipped run hands batch-aware
// consumers whole batches, and the traced run is the shipped one traced
// at every tuple (tracing must not change the output: traced batches
// take the same path as untraced ones). WC covers the vectorized
// filter/tokenize/window-count chain, SD the sliding window and
// sdSpikeDetect, TW the session and global windows, FD the plain
// stateful path; together they pin the columnar dispatch, consume,
// punctuation-ordering and row-materialization semantics to the
// one-row reference.

import (
	"testing"

	"briskstream/internal/baseline"
	"briskstream/internal/engine"
	"briskstream/internal/obs"
)

type batchMode int

const (
	scalarRef batchMode = iota // every operator behind the zero-cost wrapper: one-row batches
	shipped                    // the topology as the app builds it
	traced                     // shipped, every tuple traced
)

// runBatchMode runs rc to EOF in the given mode and returns the sink
// multiset.
func runBatchMode(t *testing.T, rc recoveryCase, mode batchMode) map[string]int64 {
	t.Helper()
	g, inner, operators, repl := rc.mk()
	sink := newRecordingSink()
	ops := make(map[string]func() engine.Operator, len(operators))
	for name, mk := range operators {
		ops[name] = mk
	}
	ops["sink"] = func() engine.Operator { return sink }
	repl["spout"] = 1
	topo := engine.Topology{
		App:         g,
		Spouts:      map[string]func() engine.Spout{"spout": func() engine.Spout { return &limitSpout{inner: inner, limit: rc.limit} }},
		Operators:   ops,
		Replication: repl,
	}
	cfg := engine.DefaultConfig()
	switch mode {
	case scalarRef:
		topo, cfg = baseline.System{}.OnEngine(topo)
	case traced:
		cfg.TraceSampleEvery = 1
	}
	e, err := engine.New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mode == traced {
		e.RegisterTrace(obs.NewTracer())
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("run errors: %v", res.Errors)
	}
	return sink.got
}

func TestBatchScalarEquivalence(t *testing.T) {
	for _, rc := range recoveryCases() {
		t.Run(rc.name, func(t *testing.T) {
			scalar := runBatchMode(t, rc, scalarRef)
			if d := diffMultisets(scalar, runBatchMode(t, rc, shipped)); d != "" {
				t.Fatalf("columnar output differs from scalar: %s", d)
			}
			if d := diffMultisets(scalar, runBatchMode(t, rc, traced)); d != "" {
				t.Fatalf("traced output differs from scalar: %s", d)
			}
		})
	}
}
