package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"briskstream/internal/engine"
	"briskstream/internal/tuple"
)

func fillOf(b block, i int) string {
	t := tuple.NewPool().Get()
	defer t.Release()
	b.fill(i, t)
	return t.String()
}

// The generators are pure functions of (seed, index): generating twice
// gives the same records, and two seeds differ.
func TestGeneratorsArePureFunctionsOfSeed(t *testing.T) {
	gens := map[string]func(seed uint64) block{
		"wc": func(s uint64) block { return genWC(s, wcWords, 0) },
		"fd": func(s uint64) block { return genFD(s) },
		"lr": func(s uint64) block { return genLR(s) },
	}
	for name, gen := range gens {
		a, again, other := gen(7), gen(7), gen(8)
		if a.sum() != again.sum() {
			t.Errorf("%s: same seed, different block", name)
		}
		if a.sum() == other.sum() {
			t.Errorf("%s: seeds 7 and 8 give the same block", name)
		}
		for _, i := range []int{0, 1, 4711, blockSize - 1} {
			if fillOf(a, i) != fillOf(again, i) {
				t.Errorf("%s: record %d differs between two generations", name, i)
			}
		}
		if fillOf(a, 0) == fillOf(a, 1) && fillOf(a, 1) == fillOf(a, 2) {
			t.Errorf("%s: records do not depend on the index", name)
		}
	}
	// Record i depends on i alone, not on the records before it.
	if draw(7, 100, 3) != draw(7, 100, 3) || draw(7, 100, 3) == draw(7, 101, 3) {
		t.Error("draw is not a function of (seed, index, field)")
	}
}

func TestZipfVocabularyIsSkewed(t *testing.T) {
	b := genWC(1, wideVocab(1000, "t.zipf."), 1.1)
	counts := make([]int, 1000)
	for _, w := range b.words {
		counts[w]++
	}
	if counts[0] < 20*counts[500] {
		t.Errorf("rank 1 drawn %d times, rank 501 %d times: not Zipf(1.1)", counts[0], counts[500])
	}
}

func TestPercentileAgainstSortedReference(t *testing.T) {
	v := make([]int64, 1000)
	for i := range v {
		v[i] = int64(mix(uint64(i)) % 100000)
	}
	slices.Sort(v)
	for _, p := range []float64{1, 50, 90, 99, 99.9, 100} {
		// Reference: the smallest value with at least p % at or below it.
		want := v[len(v)-1]
		for _, x := range v {
			atOrBelow := 0
			for _, y := range v {
				if y <= x {
					atOrBelow++
				}
			}
			if float64(atOrBelow) >= p/100*float64(len(v)) {
				want = x
				break
			}
		}
		if got := percentile(v, p); got != want {
			t.Errorf("p%v = %d, want %d", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing is not 0")
	}
}

// quartileSpread follows Python's statistics.quantiles(v, n=4), whose
// quartiles of 1..10 are 2.75, 5.5 and 8.25.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got := quartileSpread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartile spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func runSmall(t *testing.T, name string, n int, tr *tracer) *trial {
	t.Helper()
	p, err := setUp(workloadByName(name), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.run(n, runOpts{tr: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%s: oracle failed %d of %d records", name, res.Failed, n)
	}
	return res
}

// Wrapping every operator must be invisible in the output: a traced
// 50k-record WC and FD run gives the untraced digest, and the ledger of
// the traced run adds up.
func TestWrappersAreTransparent(t *testing.T) {
	for _, name := range []string{"wc_sat", "fd_sat"} {
		const n = 50000
		plain := runSmall(t, name, n, nil)
		tr := newTracer()
		traced := runSmall(t, name, n, tr)
		if plain.Digest != traced.Digest || plain.Rows != traced.Rows {
			t.Errorf("%s: untraced digest %s (%d rows), traced %s (%d rows)",
				name, plain.Digest, plain.Rows, traced.Digest, traced.Rows)
		}
		led := tr.ledger()
		if len(led) < 4 {
			t.Fatalf("%s: ledger has %d tasks", name, len(led))
		}
		for _, l := range led {
			if l.Role == "source" && l.RecordsOut != n {
				t.Errorf("%s: source sent %d records, want %d", name, l.RecordsOut, n)
			}
			if l.Role == "sink" && l.RecordsIn != traced.Rows {
				t.Errorf("%s: sink wrapper saw %d rows, sink %d", name, l.RecordsIn, traced.Rows)
			}
		}
	}
}

// On a synthetic two-operator topology the ledger's parts — self, send
// and idle, each accumulated on its own — add up to the wall time the
// engine reports.
func TestLedgerPartsSumToWall(t *testing.T) {
	const n = 200000
	topo, err := dispatchTopology(n)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	tr.wrap(&topo)
	e, err := engine.New(topo, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr.begin()
	res, err := e.Run(0)
	if err != nil || len(res.Errors) > 0 {
		t.Fatal(err, res.Errors)
	}
	tr.end(res.Duration)
	for _, l := range tr.ledger() {
		if l.SelfNs <= 0 || l.IdleNs < 0 || l.SendNs < 0 {
			t.Errorf("%s: self %d send %d idle %d", l.Task, l.SelfNs, l.SendNs, l.IdleNs)
		}
		if l.ResidualPct > maxLedgerResidualPct {
			t.Errorf("%s: self %d + send %d + idle %d differs from wall %d by %.2f %%",
				l.Task, l.SelfNs, l.SendNs, l.IdleNs, l.WallNs, l.ResidualPct)
		}
		if l.Role != "sink" && l.RecordsOut != n {
			t.Errorf("%s: sent %d tuples, want %d", l.Task, l.RecordsOut, n)
		}
	}
}

// The oracle counts a missing row, a row under the wrong key and a
// wrong count as failed records.
func TestOracleCatchesWrongOutput(t *testing.T) {
	const n = 20000
	res := runSmall(t, "fd_sat", n, nil)
	p, err := setUp(workloadByName("fd_sat"), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ref.check(sinkFD, n, res.snk); got != 0 {
		t.Fatalf("untouched sink fails %d records", got)
	}
	sym, _ := tuple.LookupSym(p.ref.keys[p.blk.(*fdBlock).entity[0]])
	res.snk.totals[sym]--
	res.snk.rows--
	if got := p.ref.check(sinkFD, n, res.snk); got == 0 {
		t.Error("a missing row passes the oracle")
	}
	res.snk.totals[sym] += 2
	res.snk.rows++
	if got := p.ref.check(sinkFD, n, res.snk); got == 0 {
		t.Error("a duplicated row passes the oracle")
	}
	if got := p.ref.check(sinkFD, n+1, res.snk); got == 0 {
		t.Error("a run one record short passes the oracle")
	}
}

func TestOpenLoopSourceKeepsItsSchedule(t *testing.T) {
	p, err := setUp(workloadByName("fd_rate"), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.runStep(rateStep{"test", 50e3, 2}, 1, nil) // 0.2 s at 50k/s
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 || r.N != 10000 {
		t.Fatalf("failed %d of %d records", r.Failed, r.N)
	}
	if r.AchievedRPS < 45e3 || r.AchievedRPS > 50.5e3 {
		t.Errorf("achieved %.0f records/s at 50 000 offered", r.AchievedRPS)
	}
	if r.P50Ms <= 0 || r.P99Ms < r.P50Ms || r.Samples < 8000 {
		t.Errorf("p50 %.3f ms, p99 %.3f ms over %d samples", r.P50Ms, r.P99Ms, r.Samples)
	}
}

func record(workload, def string, tps, p50 float64, failed int) *report {
	r := &report{
		Workload: workload, Def: def, Digest: "d", OpsAttempted: 100, OpsFailed: failed,
		Metrics: map[string]value{}, Detail: map[string]value{},
		// Records carry their raw trials; -compare must be able to read
		// them back.
		Trials:     []*trial{{N: 100, TPS: tps}},
		RateTrials: [][]*stepResult{{{Step: "load", trial: trial{N: 100, P50Ms: p50}}}},
		PlanTrials: []*planTrial{{WallS: 1, Plans: []planResult{{Case: "WC@A"}}}},
	}
	r.set("input_tps", tps)
	r.set("latency_p50_ms", p50)
	return r
}

func writeSide(t *testing.T, rs ...*report) string {
	t.Helper()
	dir := t.TempDir()
	for i, r := range rs {
		if err := writeJSON(filepath.Join(dir, r.Workload+string(rune('a'+i))+".json"), r); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestCompareVerdicts(t *testing.T) {
	base := writeSide(t, record("fd_sat", "x", 1000, 2.0, 0))
	for _, c := range []struct {
		name      string
		side      *report
		wantWorse bool
		wantText  []string
	}{
		{"within", record("fd_sat", "x", 900, 2.2, 0), false, []string{"within bound"}},
		{"worse throughput", record("fd_sat", "x", 700, 2.0, 0), true, []string{"worse"}},
		{"better latency", record("fd_sat", "x", 1000, 1.0, 0), false, []string{"better"}},
		{"more failures", record("fd_sat", "x", 1000, 2.0, 3), true, []string{"ops_failed rose from 0 to 3"}},
	} {
		var out bytes.Buffer
		gotWorse, err := compare(&out, base, writeSide(t, c.side))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if gotWorse != c.wantWorse {
			t.Errorf("%s: worse = %v, want %v\n%s", c.name, gotWorse, c.wantWorse, out.String())
		}
		for _, s := range c.wantText {
			if !strings.Contains(out.String(), s) {
				t.Errorf("%s: output lacks %q:\n%s", c.name, s, out.String())
			}
		}
	}

	// A different def is different work: refused, not compared.
	if _, err := compare(&bytes.Buffer{}, base, writeSide(t, record("fd_sat", "y", 1000, 2.0, 0))); err == nil ||
		!strings.Contains(err.Error(), "def mismatch") {
		t.Errorf("mismatched def: err = %v", err)
	}

	// A changed digest is flagged.
	changed := record("fd_sat", "x", 1000, 2.0, 0)
	changed.Digest = "e"
	var out bytes.Buffer
	if _, err := compare(&out, base, writeSide(t, changed)); err != nil || !strings.Contains(out.String(), "digest changed") {
		t.Errorf("changed digest: err %v, output:\n%s", err, out.String())
	}

	// A side whose own runs spread wider than the bound resolves nothing.
	noisy := writeSide(t, record("fd_sat", "x", 600, 2.0, 0), record("fd_sat", "x", 1000, 2.0, 0))
	out.Reset()
	if gotWorse, err := compare(&out, base, noisy); err != nil || gotWorse || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy side: worse %v, err %v, output:\n%s", gotWorse, err, out.String())
	}
}

// BENCHMARK.json is generated from the catalogue; the committed file
// must be that output.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the catalogue: regenerate it with `bash benchmark/run.sh -benchmark-json > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, m := range slices.Concat(endToEnd, perLayer) {
		if seen[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
}
