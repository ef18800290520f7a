package briskstream

// Public-API telemetry tests: RunConfig.Obs must serve live,
// well-formed metrics and journal events while an adaptive run
// profiles, checkpoints and rescales underneath — and the run's output
// must be byte-identical to an unobserved one.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"briskstream/internal/obs"
)

func TestObsServesDuringAdaptiveRescale(t *testing.T) {
	const limit, pivot = 80000, 20000
	sink := &multisetSink{got: map[string]int64{}}
	topo := buildSkewWC(limit, pivot, sink)

	var mu sync.Mutex
	events := map[string]int{}
	addrCh := make(chan string, 1)

	done := make(chan struct{})
	var res *RunResult
	var runErr error
	go func() {
		defer close(done)
		res, runErr = topo.Run(RunConfig{
			Adaptive: &AdaptiveConfig{
				Machine:     SyntheticMachine("autoscale", 2, 8),
				Stats:       skewStats(),
				Interval:    15 * time.Millisecond,
				Drift:       0.2,
				Gain:        0.05,
				MaxRescales: 2,
			},
			Obs: &ObsConfig{Addr: "127.0.0.1:0", Window: 10 * time.Second, TraceEvery: 16},
			OnEvent: func(ev ObsEvent) {
				mu.Lock()
				events[ev.Type]++
				mu.Unlock()
				if ev.Type == "obs_serving" {
					addrCh <- ev.Attrs["addr"]
				}
			},
		})
	}()

	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-done:
		t.Fatalf("run finished before serving telemetry: %v", runErr)
	case <-time.After(10 * time.Second):
		t.Fatal("telemetry server never announced itself")
	}

	// Scrape every endpoint for the whole run — through every segment
	// kill, restore and re-registration — validating each body.
	var scrapes int
	var lastMetrics, lastTraces string
	for {
		select {
		case <-done:
		default:
			resp, err := http.Get(base + "/metrics")
			if err == nil {
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr == nil && resp.StatusCode == http.StatusOK {
					if err := obs.ValidateExposition(body); err != nil {
						t.Fatalf("malformed exposition mid-run: %v", err)
					}
					lastMetrics = string(body)
					scrapes++
				}
			}
			if resp, err := http.Get(base + "/events"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			for _, path := range []string{"/traces", "/traces?fmt=chrome"} {
				resp, err := http.Get(base + path)
				if err != nil {
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr == nil && resp.StatusCode == http.StatusOK {
					if !json.Valid(body) {
						t.Fatalf("%s served invalid JSON mid-run: %.120s", path, body)
					}
					if path == "/traces" {
						lastTraces = string(body)
					}
				}
			}
			continue
		}
		break
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("run errors: %v", res.Errors)
	}
	if scrapes == 0 {
		t.Fatal("never completed a scrape during the run")
	}
	for _, want := range []string{"brisk_sink_tuples_total", "brisk_task_processed_total", "brisk_rescales_total", "brisk_sym_count", "brisk_task_queue_wait_ns_total"} {
		if !strings.Contains(lastMetrics, want) {
			t.Errorf("final scrape is missing family %s", want)
		}
	}
	if !strings.Contains(lastTraces, `"traces"`) {
		t.Errorf("/traces never served a traces document: %.120s", lastTraces)
	}

	mu.Lock()
	defer mu.Unlock()
	if events["run_start"] == 0 || events["run_stop"] == 0 {
		t.Errorf("missing run lifecycle events: %v", events)
	}
	if res.Rescales >= 1 {
		if events["rescale_begin"] == 0 || events["rescale_end"] == 0 {
			t.Errorf("run rescaled %d times but events = %v", res.Rescales, events)
		}
		if events["advisor_decision"] == 0 {
			t.Errorf("no advisor_decision event despite a rescale: %v", events)
		}
	}
	// Every settled rescale must have an audited outcome; outcomes can
	// trail rescales when the run ends before the measurement settles.
	if len(res.RescaleOutcomes) > res.Rescales {
		t.Errorf("%d outcomes for %d rescales", len(res.RescaleOutcomes), res.Rescales)
	}
	for _, o := range res.RescaleOutcomes {
		if o.At.IsZero() {
			t.Errorf("outcome with zero timestamp: %+v", o)
		}
	}
}

// TestOnEventWithoutServer pins the embedded-consumer path: OnEvent
// alone (no Obs, no listener) still activates the journal.
func TestOnEventWithoutServer(t *testing.T) {
	sink := &multisetSink{got: map[string]int64{}}
	topo := buildSkewWC(500, 250, sink)
	var mu sync.Mutex
	var types []string
	res, err := topo.Run(RunConfig{
		Replication: map[string]int{"src": 1, "split": 1, "count": 1, "sink": 1},
		OnEvent: func(ev ObsEvent) {
			mu.Lock()
			types = append(types, ev.Type)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("run errors: %v", res.Errors)
	}
	mu.Lock()
	defer mu.Unlock()
	joined := strings.Join(types, ",")
	if !strings.Contains(joined, "run_start") || !strings.Contains(joined, "run_stop") {
		t.Fatalf("events = %v, want run_start and run_stop", types)
	}
}
