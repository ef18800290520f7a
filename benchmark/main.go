// Command benchmark is the benchmark of record for this repository: six
// pinned workloads over the shipped apps and the optimizer, on inputs it
// generates from -seed, with every run's output checked against a
// reference. See README.md.
//
//	bash benchmark/run.sh --workload fd_sat --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -list
//	bash benchmark/run.sh -compare A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the full record (per-trial raw
// values, digest, def, environment) goes to <out>/<workload>.json, or
// <workload>.trace.json and <workload>.spans.json for a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"briskstream/benchmark/t0"
)

const defaultSeconds = 10

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the full record of one invocation.
type report struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	// Def hashes what defines the workload's work: generator
	// parameters, records per trial, block size, trial count. -compare
	// refuses two records whose Def differs.
	Def string `json:"def"`
	// Digest is the order-independent hash of the sink rows of the
	// first trial (the plans' predicted throughputs on rlas_plan).
	Digest       string `json:"digest"`
	OpsAttempted int    `json:"ops_attempted"`
	OpsFailed    int    `json:"ops_failed"`
	Env          env    `json:"env"`
	// Metrics is what the last line of standard output carries: every
	// end-to-end metric, or every per-layer metric when traced.
	Metrics map[string]value `json:"metrics"`
	// Detail holds the workload-specific numbers that have no place in
	// BENCHMARK.json's flat lists.
	Detail     map[string]value `json:"detail"`
	SetupTimes []float64        `json:"setup_times_s"`
	Trials     []*trial         `json:"trials,omitempty"`
	PlanTrials []*planTrial     `json:"plan_trials,omitempty"`
	RateTrials [][]*stepResult  `json:"rate_trials,omitempty"`
	Ledger     []taskLedger     `json:"ledger,omitempty"`

	outDir string
}

type env struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"GOMAXPROCS"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Trials     int    `json:"K"`
}

func (r *report) set(name string, v float64) {
	for _, tbl := range [][]metric{endToEnd, perLayer} {
		for _, m := range tbl {
			if m.Name == name {
				r.Metrics[name] = value{v, m.Unit}
				return
			}
		}
	}
	panic("metric " + name + " is in no table")
}

func (r *report) detail(name, unit string, v float64) {
	r.Detail[name] = value{v, unit}
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // not a git checkout
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see -list)")
		seed      = flag.Uint64("seed", 1, "the inputs are a pure function of the seed")
		seconds   = flag.Int("seconds", defaultSeconds, "measuring time the work is sized for")
		trace     = flag.Int("trace", 0, "1: wrap every operator and report the per-layer metrics instead of the end-to-end ones")
		outDir    = flag.String("out", "benchmark/out", "directory for the full records and span files")
		doList    = flag.Bool("list", false, "print the workload and metric catalogue")
		doJSON    = flag.Bool("benchmark-json", false, "print BENCHMARK.json as generated from the catalogue")
		doCompare = flag.Bool("compare", false, "compare two sets of records: -compare A.json B.json (files or directories)")
	)
	flag.Parse()
	switch {
	case *doList:
		list(os.Stdout)
		return
	case *doJSON:
		os.Stdout.Write(benchmarkJSON())
		return
	case *doCompare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files or directories"))
		}
		worse, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	w := workloadByName(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q; -list prints the catalogue", *name))
	}
	if *seconds < 1 || *seconds > 60 {
		fatal(fmt.Errorf("-seconds %d out of range 1..60", *seconds))
	}
	// The measured configuration is engine.DefaultConfig() and nothing
	// else; DefaultConfig reads BRISK_* switches from the environment.
	for _, kv := range os.Environ() {
		if k, _, _ := strings.Cut(kv, "="); strings.HasPrefix(k, "BRISK_") {
			os.Unsetenv(k)
		}
	}
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)

	rep := &report{
		Workload: w.Name, Seed: *seed, Seconds: *seconds, Traced: *trace != 0,
		Env: env{
			Nproc: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(),
			Commit: gitCommit(), Trials: w.Trials,
		},
		Metrics: map[string]value{},
		Detail:  map[string]value{},
		outDir:  *outDir,
	}
	rep.detail("harness.init_s", "s", initSeconds)
	if rep.Traced {
		microIntern(rep) // before set-up grows the symbol table
	}
	var err error
	switch w.Kind {
	case kindSat:
		err = runSat(rep, w)
	case kindRate:
		err = runRate(rep, w)
	case kindPlan:
		err = runPlan(rep, w)
	}
	if err != nil {
		fatal(err)
	}
	if !rep.Traced {
		rep.set("peak_rss_mb", peakRSSMB())
	}

	suffix := ".json"
	if rep.Traced {
		suffix = ".trace.json"
	}
	if err := writeJSON(filepath.Join(*outDir, w.Name+suffix), rep); err != nil {
		fatal(err)
	}
	want := endToEnd
	if rep.Traced {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := rep.Metrics[m.Name]; !ok {
			fatal(fmt.Errorf("%s did not report %s", w.Name, m.Name))
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.OpsFailed == 0, rep.OpsAttempted, rep.OpsFailed, rep.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// initSeconds is the package initialisation time: from the first
// package of the benchmark to main's own package.
var initSeconds = time.Since(t0.Start).Seconds()

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
