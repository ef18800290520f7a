package main

// Observability modes.
//
//	briskbench -run 10s -metrics :9090     # windowed demo app, live /metrics
//	briskbench -obs-check                  # scrape+validate own endpoints, exit 0/1
//	briskbench -trace-check                # run traced, validate /traces invariants
//	briskbench -check-exposition dump.txt  # validate a saved /metrics body
//
// -run drives the skew word-count (the adaptive bench topology with an
// unbounded source) for the given duration with checkpointing on, so
// every metric family — task counters, queue depths, watermark lag,
// checkpoint durations, rolling latency quantiles — carries live data.
// -obs-check is the CI smoke test: it binds to a free port, waits for
// real traffic, fetches /healthz, /metrics and /events, validates the
// exposition with the same parser the unit tests use, and requires
// every operator task to report service time. -trace-check
// does the same for the tracing surface: it runs with TraceEvery on,
// fetches /traces in both formats, and validates the trace invariants
// (hop times monotonic, spans on topology operators only, queue-wait +
// service bounded by elapsed time, breakdown summing to the mean
// end-to-end latency).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	briskstream "briskstream"
	"briskstream/internal/obs"
)

// obsDemoLimit is effectively endless: the demo is bounded by -run's
// duration, not the source.
const obsDemoLimit = int64(1) << 62

// runObsDemo runs the windowed demo app for d with telemetry served on
// addr, printing where the endpoints live and a closing summary.
func runObsDemo(d time.Duration, addr string, ckptEvery time.Duration) error {
	if d <= 0 {
		d = 10 * time.Second
	}
	t := adaptiveBenchTopology(obsDemoLimit, obsDemoLimit/2)
	co := briskstream.NewCheckpointCoordinator(nil)
	cfg := briskstream.RunConfig{
		Duration:           d,
		Checkpoint:         co,
		CheckpointInterval: ckptEvery,
		Obs:                &briskstream.ObsConfig{Addr: addr, TraceEvery: 64},
		OnEvent: func(ev briskstream.ObsEvent) {
			if ev.Type == "obs_serving" {
				fmt.Printf("telemetry: http://%s/metrics /statusz /events /traces /debug/pprof/\n", ev.Attrs["addr"])
			}
		},
	}
	res, err := t.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("ran %v: %d sink tuples, %.0f tuples/s, p99 %.2fms\n",
		res.Duration.Round(time.Millisecond), res.SinkTuples, res.Throughput, res.LatencyP99)
	return nil
}

// obsSelfCheck runs the demo app on a loopback port, scrapes its own
// endpoints mid-run, and fails on any HTTP error, malformed exposition
// line, missing core metric family, or operator task without service
// time. It is the CI gate for the /metrics surface.
func obsSelfCheck() error {
	t := adaptiveBenchTopology(obsDemoLimit, obsDemoLimit/2)
	co := briskstream.NewCheckpointCoordinator(nil)
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		_, err := t.Run(briskstream.RunConfig{
			Duration:           3 * time.Second,
			Checkpoint:         co,
			CheckpointInterval: 300 * time.Millisecond,
			Obs:                &briskstream.ObsConfig{Addr: "127.0.0.1:0"},
			OnEvent: func(ev briskstream.ObsEvent) {
				if ev.Type == "obs_serving" {
					addrCh <- ev.Attrs["addr"]
				}
			},
		})
		errCh <- err
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-errCh:
		return fmt.Errorf("obs-check: run ended before serving: %v", err)
	case <-time.After(10 * time.Second):
		return fmt.Errorf("obs-check: telemetry server never came up")
	}

	// Let the pipeline move and at least one checkpoint complete before
	// judging the scrape.
	time.Sleep(1500 * time.Millisecond)

	get := func(path string) (string, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return "", fmt.Errorf("GET %s: %w", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", fmt.Errorf("GET %s: %w", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		return string(b), nil
	}

	if body, err := get("/healthz"); err != nil || !strings.Contains(body, "ok") {
		return fmt.Errorf("obs-check: /healthz failed: %v %q", err, body)
	}
	body, err := get("/metrics")
	if err != nil {
		return fmt.Errorf("obs-check: %v", err)
	}
	if err := obs.ValidateExposition([]byte(body)); err != nil {
		return fmt.Errorf("obs-check: malformed exposition: %v", err)
	}
	for _, want := range []string{
		"brisk_sink_tuples_total",
		"brisk_task_processed_total",
		"brisk_task_queue_depth",
		"brisk_latency_rolling_ns",
		"brisk_checkpoints_completed_total",
		"brisk_sym_count",
	} {
		if !strings.Contains(body, want) {
			return fmt.Errorf("obs-check: /metrics is missing family %s", want)
		}
	}
	if err := checkOperatorsTimed(body); err != nil {
		return fmt.Errorf("obs-check: %v", err)
	}
	events, err := get("/events")
	if err != nil {
		return fmt.Errorf("obs-check: %v", err)
	}
	if !strings.Contains(events, "run_start") {
		return fmt.Errorf("obs-check: /events has no run_start: %s", events)
	}
	if _, err := get("/statusz"); err != nil {
		return fmt.Errorf("obs-check: %v", err)
	}
	if err := <-errCh; err != nil {
		return fmt.Errorf("obs-check: run failed: %v", err)
	}
	fmt.Println("obs-check: ok")
	return nil
}

// checkOperatorsTimed requires a non-zero brisk_task_service_ns_total
// for every operator task in a /metrics body. Operator tasks are the
// ones with an inbox, i.e. a brisk_task_queue_depth series; spouts have
// none and are never timed. The engine times every batch an operator
// consumes, so a zero mid-run means a task whose input never arrived
// or a timing path that went missing.
func checkOperatorsTimed(body string) error {
	serviceNs := map[string]string{}
	var ops []string
	for _, line := range strings.Split(body, "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		series, v := line[:i], line[i+1:]
		if labels, ok := strings.CutPrefix(series, "brisk_task_service_ns_total{"); ok {
			serviceNs[labels] = v
		} else if labels, ok := strings.CutPrefix(series, "brisk_task_queue_depth{"); ok {
			ops = append(ops, labels)
		}
	}
	if len(ops) == 0 {
		return fmt.Errorf("/metrics lists no operator task")
	}
	for _, labels := range ops {
		if v, ok := serviceNs[labels]; !ok || v == "0" {
			return fmt.Errorf("operator task {%s has no service time (brisk_task_service_ns_total = %q)", labels, v)
		}
	}
	return nil
}

// traceDoc mirrors the /traces JSON document for validation.
type traceDoc struct {
	Traces []struct {
		ID       uint64 `json:"id"`
		OriginNs int64  `json:"origin_ns"`
		E2eNs    int64  `json:"e2e_ns"`
		Spans    []struct {
			Op          string `json:"op"`
			Kind        string `json:"kind"`
			AtNs        int64  `json:"at_ns"`
			QueueWaitNs int64  `json:"queue_wait_ns"`
			ServiceNs   int64  `json:"service_ns"`
		} `json:"spans"`
	} `json:"traces"`
	Analysis struct {
		Traces    int     `json:"traces"`
		MeanE2eNs float64 `json:"mean_e2e_ns"`
		Ops       []struct {
			Op         string  `json:"op"`
			QueueNs    float64 `json:"queue_ns"`
			ServiceNs  float64 `json:"service_ns"`
			TransferNs float64 `json:"transfer_ns"`
		} `json:"ops"`
	} `json:"analysis"`
}

// traceSelfCheck runs the demo app with tracing on, fetches /traces in
// both formats, and validates the invariants the tracing subsystem
// guarantees: every span sits on a topology operator, hop times ascend
// within a trace, per-hop queue-wait + service never exceeds the
// elapsed end-to-end time, and the analyzer's per-operator breakdown
// sums to the mean end-to-end latency within 10%. It is the CI gate
// for the /traces surface.
func traceSelfCheck() error {
	t := adaptiveBenchTopology(obsDemoLimit, obsDemoLimit/2)
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		_, err := t.Run(briskstream.RunConfig{
			Duration: 3 * time.Second,
			Obs:      &briskstream.ObsConfig{Addr: "127.0.0.1:0", TraceEvery: 32},
			OnEvent: func(ev briskstream.ObsEvent) {
				if ev.Type == "obs_serving" {
					addrCh <- ev.Attrs["addr"]
				}
			},
		})
		errCh <- err
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-errCh:
		return fmt.Errorf("trace-check: run ended before serving: %v", err)
	case <-time.After(10 * time.Second):
		return fmt.Errorf("trace-check: telemetry server never came up")
	}

	// Let traced tuples cross the whole pipeline (including at least one
	// window flush, so sink spans exist) before judging.
	time.Sleep(2 * time.Second)

	get := func(path string) ([]byte, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return nil, fmt.Errorf("GET %s: %w", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("GET %s: %w", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		return b, nil
	}

	body, err := get("/traces")
	if err != nil {
		return fmt.Errorf("trace-check: %v", err)
	}
	var doc traceDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("trace-check: /traces is not valid JSON: %v", err)
	}
	if len(doc.Traces) == 0 {
		return fmt.Errorf("trace-check: no traces captured")
	}
	ops := map[string]bool{"src": true, "split": true, "count": true, "sink": true}
	propagated := false
	for _, tr := range doc.Traces {
		if tr.ID == 0 {
			return fmt.Errorf("trace-check: trace with zero id")
		}
		hops := map[string]bool{}
		for i, s := range tr.Spans {
			if !ops[s.Op] {
				return fmt.Errorf("trace-check: trace %d has a span on unknown operator %q", tr.ID, s.Op)
			}
			hops[s.Op] = true
			if i > 0 && s.AtNs < tr.Spans[i-1].AtNs {
				return fmt.Errorf("trace-check: trace %d hop times not monotonic", tr.ID)
			}
			if s.QueueWaitNs < 0 || s.ServiceNs < 0 {
				return fmt.Errorf("trace-check: trace %d has negative attribution", tr.ID)
			}
			if slack := int64(time.Millisecond); s.QueueWaitNs+s.ServiceNs > s.AtNs-tr.OriginNs+slack {
				return fmt.Errorf("trace-check: trace %d: queue+service %dns exceeds elapsed %dns",
					tr.ID, s.QueueWaitNs+s.ServiceNs, s.AtNs-tr.OriginNs)
			}
		}
		if hops["src"] && hops["split"] && hops["count"] {
			propagated = true
		}
	}
	if !propagated {
		return fmt.Errorf("trace-check: no trace propagated across src -> split -> count")
	}

	if doc.Analysis.Traces == 0 {
		return fmt.Errorf("trace-check: analysis covers no traces")
	}
	var attributed float64
	for _, op := range doc.Analysis.Ops {
		attributed += op.QueueNs + op.ServiceNs + op.TransferNs
	}
	mean := doc.Analysis.MeanE2eNs
	if mean <= 0 {
		return fmt.Errorf("trace-check: non-positive mean e2e %f", mean)
	}
	if diff := attributed - mean; diff > mean*0.1 || diff < -mean*0.1 {
		return fmt.Errorf("trace-check: breakdown sums to %.0fns but mean e2e is %.0fns (off by >10%%)", attributed, mean)
	}

	chrome, err := get("/traces?fmt=chrome")
	if err != nil {
		return fmt.Errorf("trace-check: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(chrome, &events); err != nil {
		return fmt.Errorf("trace-check: chrome output is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		return fmt.Errorf("trace-check: chrome output is empty")
	}

	if err := <-errCh; err != nil {
		return fmt.Errorf("trace-check: run failed: %v", err)
	}
	fmt.Printf("trace-check: ok (%d traces, mean e2e %.2fms, breakdown within 10%%)\n",
		len(doc.Traces), mean/1e6)
	return nil
}

// checkExposition validates a Prometheus text-format file ("-" reads
// stdin); CI uses it to judge a curl'ed /metrics body.
func checkExposition(path string) error {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	if err := obs.ValidateExposition(data); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	fmt.Printf("%s: well-formed (%d bytes)\n", path, len(data))
	return nil
}
