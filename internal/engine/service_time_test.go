package engine

// The engine's one operator clock: every batch an operator consumes is
// timed, whichever face takes it, under the default configuration —
// no sampling knob to turn on. The counters feed ProfileSnapshot (the
// Te and N the performance model consumes) and /metrics alike.

import (
	"bufio"
	"strconv"
	"strings"
	"testing"

	"briskstream/internal/graph"
	"briskstream/internal/obs"
)

// TestEveryOperatorTaskTimedByDefault fans one spout out to a
// batch-aware operator, a row-only OperatorFunc and a BatchGater that
// declines batches. After a DefaultConfig run each of them reports
// service time and input bytes over exactly its processed rows, in
// ProfileSnapshot and in brisk_task_service_ns_total; the spout stays
// untimed.
func TestEveryOperatorTaskTimedByDefault(t *testing.T) {
	const n = 5000
	g := graph.New("timed")
	g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
	kinds := map[string]*deliveryLog{"batch": {}, "row": {}, "gated": {}}
	for name := range kinds {
		g.AddNode(&graph.Node{Name: name, IsSink: true})
		g.AddEdge(graph.Edge{From: "spout", To: name, Stream: "default"})
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := New(Topology{
		App:    g,
		Spouts: map[string]func() Spout{"spout": boundedSpoutEOF(n)},
		Operators: map[string]func() Operator{
			"batch": func() Operator { return batchDeliveryLog{kinds["batch"]} },
			"row":   func() Operator { return kinds["row"] },
			"gated": func() Operator { return gatedDeliveryLog{batchDeliveryLog{kinds["gated"]}} },
		},
	}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(0)
	e.RegisterObs(reg.Group("engine"), obs.NewJournal(0))
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if kinds["batch"].batches == 0 || kinds["batch"].rows != 0 || kinds["row"].rows != n || kinds["gated"].rows != n {
		t.Fatalf("operators took the wrong face: batch %+v, row %+v, gated %+v", *kinds["batch"], *kinds["row"], *kinds["gated"])
	}

	for _, ts := range e.ProfileSnapshot().Tasks {
		if ts.Op == "spout" {
			if ts.ServiceNs != 0 || ts.InBytes != 0 {
				t.Errorf("spout timed: ServiceNs %d, InBytes %d, want 0 and 0", ts.ServiceNs, ts.InBytes)
			}
			continue
		}
		if ts.Processed != n || ts.ServiceNs == 0 || ts.InBytes == 0 {
			t.Errorf("%s: Processed %d, ServiceNs %d, InBytes %d; want %d rows timed with non-zero service time and bytes",
				ts.Label(), ts.Processed, ts.ServiceNs, ts.InBytes, n)
		}
	}

	var prom strings.Builder
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	served := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(prom.String()))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "brisk_task_service_ns_total{") {
			continue
		}
		op := line[strings.Index(line, `op="`)+4:]
		op = op[:strings.IndexByte(op, '"')]
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("unparsable series %q: %v", line, err)
		}
		served[op] = v
	}
	for name := range kinds {
		if served[name] <= 0 {
			t.Errorf("brisk_task_service_ns_total for %s = %v, want > 0", name, served[name])
		}
	}
}
