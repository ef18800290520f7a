package profile

import (
	"testing"
	"time"
)

// TestFromEngineSpoutKeepsBaseTeN: the engine times every batch an
// operator consumes but never a spout, so a spout's Processed grows
// with zero ServiceNs. FromEngine must keep that spout's base Te and N
// (re-measuring only its selectivity), while a timed operator's Te and
// N become per-processed-tuple means summed over its replicas.
func TestFromEngineSpoutKeepsBaseTeN(t *testing.T) {
	base := Set{
		"spout":    {Te: 450, N: 24, Selectivity: map[string]float64{"default": 1}},
		"splitter": {Te: 400, N: 24, Selectivity: map[string]float64{"default": 10}},
	}
	at := time.Unix(100, 0)
	prev := EngineSnapshot{At: at, Tasks: []TaskSnapshot{
		{Op: "spout", Processed: 1000, Emitted: 1000},
		{Op: "splitter", Replica: 0, Processed: 500, Emitted: 4000, ServiceNs: 100_000, InBytes: 16_000},
		{Op: "splitter", Replica: 1, Processed: 500, Emitted: 4000, ServiceNs: 100_000, InBytes: 16_000},
	}}
	cur := EngineSnapshot{At: at.Add(time.Second), Tasks: []TaskSnapshot{
		{Op: "spout", Processed: 3000, Emitted: 3000},
		{Op: "splitter", Replica: 0, Processed: 1500, Emitted: 12_000, ServiceNs: 300_000, InBytes: 48_000},
		{Op: "splitter", Replica: 1, Processed: 1500, Emitted: 12_000, ServiceNs: 500_000, InBytes: 48_000},
	}}
	got, err := FromEngine(base, prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	if sp := got["spout"]; sp.Te != 450 || sp.N != 24 || sp.Selectivity["default"] != 1 {
		t.Errorf("spout = %+v, want base Te 450 and N 24 with selectivity 1", sp)
	}
	// splitter: 2000 rows in the interval took 600µs over 64 kB.
	if sp := got["splitter"]; sp.Te != 300 || sp.N != 32 || sp.Selectivity["default"] != 8 {
		t.Errorf("splitter = %+v, want Te 300, N 32, selectivity 8", sp)
	}
	if base["spout"].Te != 450 || base["splitter"].Te != 400 {
		t.Error("FromEngine mutated its base set")
	}
}
