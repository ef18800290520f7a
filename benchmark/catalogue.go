package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// kind says how a workload drives the system.
type kind uint8

const (
	// kindSat is a closed loop: the spout emits as fast as backpressure
	// admits, K trials of fixed work, the fastest trial is the value.
	kindSat kind = iota
	// kindRate is an open loop at fixed offered rates.
	kindRate
	// kindPlan runs the optimizer, no engine.
	kindPlan
)

// workload is one row of the workload table. BENCHMARK.json, -list and
// the runner all read this table, so they cannot drift.
type workload struct {
	Name string
	Why  string // one line, goes to BENCHMARK.json
	Kind kind
	App  string // apps.ByName
	// Trials is K at -seconds 10.
	Trials int
	// Recs10 is the records per trial at -seconds 10, sized for ≈2 s a
	// trial on a 2-core box; the runner scales it with -seconds and
	// rounds to a multiple of blockSize.
	Recs10 int
	Gen    func(seed uint64, rep int) block
	Sink   sinkKind
	// WmEvery is the spout's watermark period in records (0: none, as
	// the shipped FD spout sends none).
	WmEvery int
	// Keyed names the operators that hold keyed state (windows, maps);
	// state.service_ns_per_rec is their self time.
	Keyed []string
	// LatStride thins latency samples where nearly every sink row is
	// stamped, to bound the sample buffer.
	LatStride int
	// LoadRate is the offered rate (records/s) of the open-loop steps a
	// saturation workload runs after its closed-loop trials, about a
	// third of its saturation rate on the 2-core box: latency_p50_ms
	// and cpu_s_per_mrec are taken there, where they say something
	// (at saturation latency is queue depth and both cores are pegged).
	LoadRate float64
	// Extra names the one additional trial the workload's traced run
	// carries: "checkpoint" (500 ms in-memory checkpoints) or
	// "telemetry" (RegisterObs plus a trace every 64 tuples).
	Extra string
}

// rateStep is one offered rate of the open-loop workload; Secs10 is its
// length at -seconds 10.
type rateStep struct {
	Name   string
	Rate   float64
	Secs10 float64
}

// rateSteps: at r10k a 64-row batch never fills on its own, at r600k
// (≈30 % of FD's saturation rate) latency is transfer plus wait, and
// r1200k is near the knee. The end-to-end metrics of fd_rate are taken
// at r600k.
var rateSteps = []rateStep{
	{"r10k", 10e3, 0.6},
	{"r600k", 600e3, 1.8},
	{"r1200k", 1200e3, 0.9},
}

const headlineStep = "r600k"

// loadStep is the open-loop step of a saturation workload, run
// loadTrials times.
func loadStep(w *workload) rateStep { return rateStep{"load", w.LoadRate, 1.5} }

const loadTrials = 2

// planCase is one optimizer request of rlas_plan.
type planCase struct {
	App, Machine string
	// FloorMtps is the plan's predicted throughput (M events/s) at the
	// commit that added the benchmark, less 0.5 %. The optimizer is
	// deterministic, so a search that returns a worse plan than this
	// fails the run instead of looking faster.
	FloorMtps float64
}

var planCases = []planCase{
	{"WC", "A", 76.909 * 0.995},
	{"FD", "A", 8.1857 * 0.995},
	{"SD", "B", 5.3937 * 0.995},
	{"LR", "B", 5.3078 * 0.995},
}

// Optimizer settings of rlas_plan: cmd/rlas's defaults (fill 0.7,
// compress 5, 40 iterations) except the branch-and-bound node limit,
// 300 instead of 1500, which keeps a four-plan trial near 2 s (it is
// 8.6 s at 1500) so that five trials fit a run.
const (
	planFill      = 0.7
	planCompress  = 5
	planNodeLimit = 300
	planMaxIters  = 40
)

var workloads = []workload{
	{
		Name: "wc_sat", Kind: kindSat, App: "WC", Trials: 4, Recs10: 20 * blockSize, LoadRate: 200e3,
		Why:     "flagship: splitter fan-out x10 through pooled tuples into the window counter in its grouped mode; apps, window and tuple.Pool do the work, queue little",
		Gen:     func(seed uint64, _ int) block { return genWC(seed, wcWords, 0) },
		Sink:    sinkWC,
		WmEvery: 64, Keyed: []string{"counter"}, LatStride: 1,
	},
	{
		Name: "wc_widekeys_sat", Kind: kindSat, App: "WC", Trials: 4, Recs10: 8 * blockSize, LoadRate: 70e3,
		Why: "same operators used the other way: 100k-word Zipf vocabulary, window falls back to direct accumulation, state.Map grows and window fire/emit outweighs accumulate",
		Gen: func(seed uint64, rep int) block {
			return genWC(seed, wideVocab(100000, fmt.Sprintf("w%d.%d.", seed, rep)), 1.1)
		},
		Sink:    sinkWC,
		WmEvery: 64, Keyed: []string{"counter"}, LatStride: 8, Extra: "checkpoint",
	},
	{
		Name: "fd_sat", Kind: kindSat, App: "FD", Trials: 4, Recs10: 56 * blockSize, LoadRate: 600e3,
		Why:  "cheapest operators, 1:1 to the sink, no window: queue transfer, tuple.Batch arena copies and pool recycling dominate",
		Gen:  func(seed uint64, _ int) block { return genFD(seed) },
		Sink: sinkFD, Keyed: []string{"predict"}, LatStride: 1, Extra: "telemetry",
	},
	{
		Name: "lr_sat", Kind: kindSat, App: "LR", Trials: 4, Recs10: 24 * blockSize, LoadRate: 250e3,
		Why:     "12 operators, five-way fan-out, 18 edges, all-integer records: engine dispatch and row copies, more tasks than cores; bypasses string arenas",
		Gen:     func(seed uint64, _ int) block { return genLR(seed) },
		Sink:    sinkLR,
		WmEvery: 64, Keyed: []string{"avg_speed", "count_vehicle", "accident_detect"}, LatStride: 1,
	},
	{
		Name: "fd_rate", Kind: kindRate, App: "FD", Trials: 3,
		Why:  "open loop at 10k, 600k and 1200k records/s: the batching layer used the other way, a larger batch or a spinning wait wins fd_sat and pays here in latency or CPU",
		Gen:  func(seed uint64, _ int) block { return genFD(seed) },
		Sink: sinkFD, Keyed: []string{"predict"}, LatStride: 1,
	},
	{
		Name: "rlas_plan", Kind: kindPlan, Trials: 7,
		Why: "the paper's optimizer on WC@A, FD@A, SD@B, LR@B: a layer group (rlas, bnb, model, plan) no engine workload touches; engine changes must leave it flat",
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric is one row of a metric table.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// What defines the metric; Moves says which end-to-end metric a
	// layer metric should move and on which workload.
	What  string `json:"-"`
	Moves string `json:"-"`
}

// A work unit is an input record on the engine workloads and a plan on
// rlas_plan. Every workload reports every end-to-end metric, because the
// driver compares each (workload, metric) pair against the parent.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		What: "package initialisation plus the median of repeated set-ups: block generation, bulk interning, oracle tally, engine.New and one warm-up block through the engine (the four planner inputs on rlas_plan)"},
	{Name: "input_tps", Unit: "1/s", Better: "higher", Bound: 0.25,
		What: "work units per second: *_sat N / drain time to EOF of the fastest closed-loop trial; fd_rate records through the sink per second at r600k; rlas_plan plans per second, fastest trial"},
	{Name: "cpu_s_per_mrec", Unit: "s/Mrec", Better: "lower", Bound: 0.25,
		What: "getrusage user+sys per 10^6 work units over an open-loop step at moderate load (*_sat: the load step at about a third of saturation; fd_rate: r600k), lowest over its trials: what idle polling costs; on rlas_plan CPU-µs per plan, fastest trial"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		What: "median of sink arrival minus stamp over that open-loop step, every record stamped with its due time (window results carry the stamp of the watermark that fired them), lowest over its trials; on rlas_plan the median time of one plan"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20,
		What: "ru_maxrss at exit, harness included"},
}

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and numbers
	}
	return append(out, '\n')
}

// list prints the catalogue as the Markdown tables README.md carries.
func list(w io.Writer) {
	fmt.Fprint(w, "| workload | why it is here |\n|---|---|\n")
	for _, wl := range workloads {
		fmt.Fprintf(w, "| `%s` | %s |\n", wl.Name, wl.Why)
	}
	fmt.Fprint(w, "\nEnd-to-end metrics, reported by every workload with --trace 0:\n\n")
	fmt.Fprint(w, "| name | unit | better | bound | definition |\n|---|---|---|---|---|\n")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "| `%s` | %s | %s | %.0f %% | %s |\n", m.Name, m.Unit, m.Better, m.Bound*100, m.What)
	}
	fmt.Fprint(w, "\nPer-layer metrics, reported by every workload with --trace 1:\n\n")
	fmt.Fprint(w, "| name | unit | definition | should move |\n|---|---|---|---|\n")
	for _, m := range perLayer {
		fmt.Fprintf(w, "| `%s` | %s | %s | %s |\n", m.Name, m.Unit, m.What, m.Moves)
	}
	fmt.Fprintf(w, "\nWorkload-specific numbers, in benchmark/out/<workload>.json only: %s\n",
		strings.Join(detailOnly, ", "))
}
