// Command briskbench regenerates the paper's evaluation artifacts: every
// table and figure of Section 6 as a text report.
//
//	briskbench -list            # list experiment ids
//	briskbench -exp table4      # run one experiment
//	briskbench -all             # run the full suite (slow)
//	briskbench -all -quick      # reduced fidelity, minutes instead
//	briskbench -engine 3s       # real-engine hot-path microbenchmark
//	briskbench -bench-json 2s   # benchmark apps on the real engine, JSON rows
//	briskbench -run 10s -metrics :9090   # windowed demo app with live telemetry
//	briskbench -obs-check       # scrape+validate own /metrics, exit 0/1
//	briskbench -trace-check     # run traced, validate /traces invariants
//	briskbench -check-exposition f.txt   # validate a saved exposition file
//
// The real-engine modes accept -rate N (token-bucket cap on each app's
// total spout output, tuples/sec) and -linger D (partial jumbo batch
// flush timeout), which makes low-rate/linger and watermark-lag
// scenarios drivable from the CLI:
//
//	briskbench -bench-json 2s -rate 5000 -linger 2ms
//
// Fault-tolerance modes:
//
//	briskbench -kill-after 1s -app WC            # kill/recover demo
//	briskbench -kill-after 1s -ckpt-dir /tmp/cp  # file-backed checkpoints
//
// -kill-after runs the app with aligned checkpoints (interval set by
// -checkpoint, default 200ms), kills the engine like a crash after the
// given duration, restores the latest completed checkpoint, seeks the
// sources back to their recorded offsets, and resumes. bench-json also
// measures checkpointing overhead: every row reports checkpoint-off and
// checkpoint-on ingest (1s interval) and the relative cost.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"briskstream/internal/apps"
	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
	"briskstream/internal/experiments"
	"briskstream/internal/graph"
	"briskstream/internal/numa"
	"briskstream/internal/tuple"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list experiment ids and exit")
		exp       = flag.String("exp", "", "run a single experiment by id")
		all       = flag.Bool("all", false, "run every experiment")
		quick     = flag.Bool("quick", false, "reduced fidelity (faster, same shapes)")
		engineDur = flag.Duration("engine", 0, "run the real-engine queue/dispatch microbenchmark for this duration")
		benchJSON = flag.Duration("bench-json", 0, "run the benchmark apps on the real engine for this duration each and print JSON perf rows")
		pin       = flag.Bool("pin", false, "bench-json: add pinned-executor variants to the GOMAXPROCS x replication matrix (threads bound to their socket's CPUs; skipped where unsupported)")
		rate      = flag.Float64("rate", 0, "token-bucket cap on spout output (tuples/sec across an app's spout replicas); 0 = unthrottled")
		linger    = flag.Duration("linger", engine.DefaultConfig().Linger, "partial jumbo-batch flush timeout (0 disables)")
		killAfter = flag.Duration("kill-after", 0, "fault-tolerance demo: kill the engine after this duration, then restore from the latest checkpoint and resume")
		appName   = flag.String("app", "WC", "application for -kill-after (WC, FD, SD, LR, TW)")
		ckptEvery = flag.Duration("checkpoint", 200*time.Millisecond, "checkpoint interval for -kill-after")
		ckptDir   = flag.String("ckpt-dir", "", "persist checkpoints to this directory (default: in-memory)")
		runFor    = flag.Duration("run", 0, "run the windowed demo app for this duration (combine with -metrics)")
		metrics   = flag.String("metrics", ":9090", "telemetry listen address for -run (/metrics, /statusz, /events, /healthz, /debug/pprof/)")
		obsCheck  = flag.Bool("obs-check", false, "self-check: run the demo app on a loopback port, scrape and validate /metrics, exit nonzero on failure")
		traceChk  = flag.Bool("trace-check", false, "self-check: run the demo app with tracing on, fetch /traces, and validate the trace invariants, exit nonzero on failure")
		checkExpo = flag.String("check-exposition", "", "validate a Prometheus text-format file (- for stdin) and exit")
	)
	flag.Parse()

	if *checkExpo != "" {
		if err := checkExposition(*checkExpo); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *obsCheck {
		if err := obsSelfCheck(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *traceChk {
		if err := traceSelfCheck(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *runFor > 0 {
		if err := runObsDemo(*runFor, *metrics, *ckptEvery); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *killAfter > 0 {
		if err := killRecoverDemo(*appName, *killAfter, *ckptEvery, *ckptDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-8s %s\n", id, experiments.Title(id))
		}
		return
	}

	if *engineDur > 0 {
		if err := engineMicrobench(*engineDur, *rate, *linger); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *benchJSON > 0 {
		if err := appBenchJSON(*benchJSON, *rate, *linger, *pin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	ctx := experiments.NewContext()
	ctx.Quick = *quick

	ids := []string{}
	switch {
	case *exp != "":
		ids = append(ids, *exp)
	case *all:
		ids = experiments.IDs()
	default:
		flag.Usage()
		os.Exit(2)
	}

	for _, id := range ids {
		start := time.Now()
		r, err := experiments.Run(id, ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(r.String())
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// tokenBucket throttles a set of spout replicas to a shared tuples/sec
// budget. Take is called from every replica's goroutine; the mutex is
// uncontended at the low rates the throttle exists for.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64) *tokenBucket {
	return &tokenBucket{rate: rate, tokens: 1, last: time.Now()}
}

// take consumes one token if available; a dry bucket yields briefly so
// a throttled spout does not monopolize its core while waiting.
func (b *tokenBucket) take() bool {
	b.mu.Lock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	b.last = now
	if burst := 1 + b.rate/100; b.tokens > burst {
		b.tokens = burst // burst bound: ~10ms of backlog
	}
	ok := b.tokens >= 1
	if ok {
		b.tokens--
	}
	b.mu.Unlock()
	if !ok {
		time.Sleep(50 * time.Microsecond)
	}
	return ok
}

// throttleSpouts wraps every spout builder of an app with one shared
// token bucket (the app-wide ingress rate), leaving the builders
// untouched when rate is 0.
func throttleSpouts(spouts map[string]func() engine.Spout, rate float64) map[string]func() engine.Spout {
	if rate <= 0 {
		return spouts
	}
	bucket := newTokenBucket(rate)
	out := make(map[string]func() engine.Spout, len(spouts))
	for name, mk := range spouts {
		mk := mk
		out[name] = func() engine.Spout {
			inner := mk()
			return engine.SpoutFunc(func(c engine.Collector) error {
				if !bucket.take() {
					return nil // no token: emit nothing this call
				}
				return inner.Next(c)
			})
		}
	}
	return out
}

// engineMicrobench runs a duration-bounded spout->double->sink pipeline
// on the real engine at several producer replication levels and prints
// throughput plus the queue-layer counters, making the SPSC rework's
// effect observable without `go test -bench`.
func engineMicrobench(d time.Duration, rate float64, linger time.Duration) error {
	rows := [][]string{}
	for _, spouts := range []int{1, 2, 4} {
		g := graph.New("microbench")
		g.AddNode(&graph.Node{Name: "spout", IsSpout: true, Selectivity: map[string]float64{"default": 1}})
		g.AddNode(&graph.Node{Name: "double", Selectivity: map[string]float64{"default": 1}})
		g.AddNode(&graph.Node{Name: "sink", IsSink: true})
		g.AddEdge(graph.Edge{From: "spout", To: "double", Stream: "default"})
		g.AddEdge(graph.Edge{From: "double", To: "sink", Stream: "default"})
		if err := g.Validate(); err != nil {
			return err
		}
		topo := engine.Topology{
			App: g,
			Spouts: throttleSpouts(map[string]func() engine.Spout{"spout": func() engine.Spout {
				i := int64(0)
				return engine.SpoutFunc(func(c engine.Collector) error {
					i++
					out := c.Borrow()
					out.AppendInt(i)
					c.Send(out)
					return nil
				})
			}}, rate),
			Operators: map[string]func() engine.Operator{
				"double": func() engine.Operator {
					return engine.OperatorFunc(func(c engine.Collector, t *tuple.Tuple) error {
						out := c.Borrow()
						out.CopyValuesFrom(t)
						c.Send(out)
						return nil
					})
				},
				"sink": func() engine.Operator {
					return engine.OperatorFunc(func(c engine.Collector, t *tuple.Tuple) error { return nil })
				},
			},
			Replication: map[string]int{"spout": spouts},
		}
		cfg := engine.DefaultConfig()
		cfg.Linger = linger
		e, err := engine.New(topo, cfg)
		if err != nil {
			return err
		}
		// Poll the inbox atomics while the engine runs — the same live
		// sampling the metrics/adaptive layers do — and report the
		// insert rate over the second half of the run (past warm-up).
		type runOut struct {
			res *engine.Result
			err error
		}
		done := make(chan runOut, 1)
		go func() {
			res, err := e.Run(d)
			done <- runOut{res, err}
		}()
		time.Sleep(d / 2)
		puts0, _ := e.QueueStats()
		half := time.Now()
		out := <-done
		if out.err != nil {
			return out.err
		}
		res := out.res
		if len(res.Errors) != 0 {
			return res.Errors[0]
		}
		putsEnd, _ := e.QueueStats()
		perInsert := float64(0)
		if res.QueuePuts > 0 {
			perInsert = float64(res.Processed["double"]+res.SinkTuples) / float64(res.QueuePuts)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", spouts),
			fmt.Sprintf("%.0f", res.Throughput),
			fmt.Sprintf("%d", res.QueuePuts),
			fmt.Sprintf("%.0f", float64(putsEnd-puts0)/time.Since(half).Seconds()),
			fmt.Sprintf("%.1f", perInsert),
		})
	}
	fmt.Printf("engine queue/dispatch microbenchmark (%v per row)\n\n", d)
	fmt.Println(experiments.Table(
		[]string{"spouts", "tuples/s", "queue puts", "inserts/s", "tuples/insert"},
		rows,
	))
	return nil
}

// killRecoverDemo is the CLI face of the recovery path: run an app with
// periodic aligned checkpoints, kill the engine mid-run the way a crash
// would, restore the latest completed checkpoint, seek the sources back
// and resume for another kill-after window.
func killRecoverDemo(appName string, killAfter, interval time.Duration, dir string) error {
	a := apps.ByName(appName)
	if a == nil {
		return fmt.Errorf("unknown app %q", appName)
	}
	var store checkpoint.Store
	if dir != "" {
		fs, err := checkpoint.NewFileStore(dir)
		if err != nil {
			return err
		}
		store = fs
	}
	co := checkpoint.NewCoordinator(store)
	cfg := engine.DefaultConfig()
	cfg.Checkpoint = co
	cfg.CheckpointInterval = interval
	e, err := engine.New(a.Topology(nil), cfg)
	if err != nil {
		return err
	}

	fmt.Printf("%s: running with %v checkpoints, killing after %v...\n", a.Name, interval, killAfter)
	done := make(chan *engine.Result, 1)
	go func() {
		res, _ := e.Run(0)
		done <- res
	}()
	time.Sleep(killAfter)
	e.Kill()
	res := <-done
	if len(res.Errors) != 0 {
		return res.Errors[0]
	}
	fmt.Printf("killed:    %d sink tuples, %d checkpoints completed\n", res.SinkTuples, co.Completed())

	id, err := e.Restore()
	if err != nil {
		return err
	}
	fmt.Printf("restored:  checkpoint %d (latest completed)\n", id)
	res2, err := e.Run(killAfter)
	if err != nil {
		return err
	}
	if len(res2.Errors) != 0 {
		return res2.Errors[0]
	}
	fmt.Printf("recovered: %d sink tuples in %v after replaying from the checkpoint offsets\n",
		res2.SinkTuples, res2.Duration.Round(time.Millisecond))
	return nil
}

// appBenchRow is one (application, replication) measurement of the
// real-engine data path, serialized into the BENCH_PR*.json trajectory
// files the Makefile's bench-json target maintains.
type appBenchRow struct {
	App         string `json:"app"`
	Replication int    `json:"replication"`
	// GOMAXPROCS and Pinned identify the row's point in the multicore
	// matrix: the scheduler parallelism the row ran under, and whether
	// task threads were bound to their socket's CPUs. Rows before PR 7
	// were all {gomaxprocs: 1, pinned: false}.
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Pinned      bool    `json:"pinned"`
	DurationSec float64 `json:"duration_sec"`
	SinkTuples  uint64  `json:"sink_tuples"`
	// ThroughputTPS is the sink-output rate; for windowed apps (WC, SD,
	// TW, and LR's stat path) sinks receive aggregates, so InputTPS —
	// the spout ingest rate — is the cross-PR comparable number.
	ThroughputTPS  float64 `json:"throughput_tps"`
	InputTPS       float64 `json:"input_tps"`
	LatencyP50Ms   float64 `json:"latency_p50_ms"`
	LatencyP99Ms   float64 `json:"latency_p99_ms"`
	AllocsPerTuple float64 `json:"allocs_per_tuple"`
	QueuePuts      uint64  `json:"queue_puts"`
	// InputTPSCkpt is the ingest rate of the same configuration with
	// aligned checkpoints at a 1s interval; CkptOverheadPct is the
	// relative throughput cost ((off-on)/off, percent — the subsystem
	// targets <5%), and CkptCompleted counts the checkpoints that
	// completed during the measurement. Measured on the GOMAXPROCS=1
	// unpinned rows only (the cross-PR trajectory); zero elsewhere.
	InputTPSCkpt    float64 `json:"input_tps_ckpt"`
	CkptOverheadPct float64 `json:"ckpt_overhead_pct"`
	CkptCompleted   uint64  `json:"ckpt_completed"`
}

type appBenchReport struct {
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	PerRunDur  string        `json:"per_run_duration"`
	Rows       []appBenchRow `json:"rows"`
	// Adaptive compares a static stale plan against the autoscaler on
	// the skew-shift word-count (see adaptive.go).
	Adaptive *adaptiveBenchRow `json:"adaptive,omitempty"`
}

// benchVariant is one point of the multicore matrix bench-json sweeps
// per application: scheduler parallelism x replication x pinning.
type benchVariant struct {
	gm     int
	repl   int
	pinned bool
}

// appBenchJSON runs the benchmark applications (the paper's four plus
// the windowed TW) on the real engine across a GOMAXPROCS x
// replication (x pinned, with -pin) matrix and writes machine-readable
// throughput, latency and allocation rows, so the perf trajectory of
// the data path — including the multicore replication scaling the
// paper is about — is tracked across PRs (`make bench-json`).
func appBenchJSON(d time.Duration, rate float64, linger time.Duration, pin bool, w *os.File) error {
	report := appBenchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		PerRunDur:  d.String(),
	}
	variants := []benchVariant{
		{gm: 1, repl: 1}, {gm: 1, repl: 4},
		{gm: 4, repl: 1}, {gm: 4, repl: 4},
	}
	if pin {
		if numa.PinSupported() {
			variants = append(variants, benchVariant{gm: 4, repl: 1, pinned: true}, benchVariant{gm: 4, repl: 4, pinned: true})
		} else {
			fmt.Fprintln(os.Stderr, "-pin: thread affinity unsupported on this platform, skipping pinned rows")
		}
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, a := range apps.Benchmarks() {
		for _, v := range variants {
			runtime.GOMAXPROCS(v.gm)
			cfg := engine.DefaultConfig()
			cfg.Linger = linger
			cfg.Pin = v.pinned // overrides BRISK_PIN either way: the row label must be honest
			replication := map[string]int{}
			for _, n := range a.Graph.Nodes() {
				replication[n.Name] = v.repl
			}
			topo := a.Topology(replication)
			topo.Spouts = throttleSpouts(a.Spouts, rate)
			e, err := engine.New(topo, cfg)
			if err != nil {
				return fmt.Errorf("%s x%d: %w", a.Name, v.repl, err)
			}
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			res, err := e.Run(d)
			if err != nil {
				return fmt.Errorf("%s x%d: %w", a.Name, v.repl, err)
			}
			runtime.ReadMemStats(&m1)
			if len(res.Errors) != 0 {
				return fmt.Errorf("%s x%d: %v", a.Name, v.repl, res.Errors[0])
			}
			var processed, ingested uint64
			for _, n := range res.Processed {
				processed += n
			}
			for _, n := range a.Graph.Spouts() {
				ingested += res.Processed[n.Name]
			}
			row := appBenchRow{
				App:           a.Name,
				Replication:   v.repl,
				GOMAXPROCS:    v.gm,
				Pinned:        v.pinned,
				DurationSec:   res.Duration.Seconds(),
				SinkTuples:    res.SinkTuples,
				ThroughputTPS: res.Throughput,
				LatencyP50Ms:  res.Latency.Quantile(0.5) / 1e6,
				LatencyP99Ms:  res.Latency.Quantile(0.99) / 1e6,
				QueuePuts:     res.QueuePuts,
			}
			if s := res.Duration.Seconds(); s > 0 {
				row.InputTPS = float64(ingested) / s
			}
			if processed > 0 {
				row.AllocsPerTuple = float64(m1.Mallocs-m0.Mallocs) / float64(processed)
			}

			// Same configuration with aligned checkpoints at a 1s
			// interval: the overhead column the subsystem is gated on.
			// Only on the single-core unpinned rows — the cross-PR
			// trajectory — so the matrix growth doesn't double the wall
			// time of every new row.
			if v.gm == 1 && !v.pinned {
				co := checkpoint.NewCoordinator(nil)
				ccfg := cfg
				ccfg.Checkpoint = co
				ccfg.CheckpointInterval = time.Second
				ctopo := a.Topology(replication)
				ctopo.Spouts = throttleSpouts(a.Spouts, rate)
				ec, err := engine.New(ctopo, ccfg)
				if err != nil {
					return fmt.Errorf("%s x%d ckpt: %w", a.Name, v.repl, err)
				}
				resC, err := ec.Run(d)
				if err != nil {
					return fmt.Errorf("%s x%d ckpt: %w", a.Name, v.repl, err)
				}
				if len(resC.Errors) != 0 {
					return fmt.Errorf("%s x%d ckpt: %v", a.Name, v.repl, resC.Errors[0])
				}
				var ingestedC uint64
				for _, n := range a.Graph.Spouts() {
					ingestedC += resC.Processed[n.Name]
				}
				if s := resC.Duration.Seconds(); s > 0 {
					row.InputTPSCkpt = float64(ingestedC) / s
				}
				row.CkptCompleted = co.Completed()
				if row.InputTPS > 0 {
					row.CkptOverheadPct = (row.InputTPS - row.InputTPSCkpt) / row.InputTPS * 100
				}
			}

			report.Rows = append(report.Rows, row)
			pinTag := ""
			if v.pinned {
				pinTag = " pinned"
			}
			fmt.Fprintf(os.Stderr, "%-3s x%d p%d%s: %12.0f in-tuples/s %10.0f out/s  %.3f allocs/tuple\n",
				a.Name, v.repl, v.gm, pinTag, row.InputTPS, row.ThroughputTPS, row.AllocsPerTuple)
		}
	}
	runtime.GOMAXPROCS(prev)
	ad, err := adaptiveBench()
	if err != nil {
		return err
	}
	report.Adaptive = ad

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
