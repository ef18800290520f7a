package engine

// Race coverage for live telemetry: HTTP scrapes of /metrics and
// /events must be safe — and every exposed line well-formed — while
// the engine underneath is run, checkpointed, killed and restored.
// Run with -race this is the proof that RegisterObs reads only atomics
// and properly-locked registry state.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"briskstream/internal/checkpoint"
	"briskstream/internal/obs"
)

func TestObsScrapeRaceAcrossKillRestore(t *testing.T) {
	co := checkpoint.NewCoordinator(nil)
	spout := &seqSpout{replica: 0, limit: 1 << 62}
	agg := newSumOp()
	topo := Topology{
		App:       sinkGraph(t, 1),
		Spouts:    map[string]func() Spout{"spout": func() Spout { return spout }},
		Operators: map[string]func() Operator{"agg": func() Operator { return agg }},
	}
	cfg := DefaultConfig()
	cfg.Checkpoint = co
	cfg.CheckpointInterval = 2 * time.Millisecond
	cfg.TraceSampleEvery = 8

	reg := obs.NewRegistry(0)
	jr := obs.NewJournal(0)
	tracer := obs.NewTracer()
	srv, err := obs.Serve("127.0.0.1:0", reg, jr, tracer)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Scrapers hammer both endpoints for the whole kill/restore cycle;
	// every /metrics body must parse as exposition format no matter what
	// phase the engine is in.
	stop := make(chan struct{})
	scrapeErr := make(chan error, 1)
	var scrapes atomic.Uint64
	scraper := func(path string, check func([]byte) error) {
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(srv.URL() + path)
			if err != nil {
				continue // server teardown race at test end
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				continue
			}
			if resp.StatusCode != http.StatusOK {
				select {
				case scrapeErr <- io.ErrUnexpectedEOF:
				default:
				}
				return
			}
			if check != nil {
				if err := check(body); err != nil {
					select {
					case scrapeErr <- err:
					default:
					}
					return
				}
			}
			scrapes.Add(1)
		}
	}
	go scraper("/metrics", obs.ValidateExposition)
	go scraper("/events", nil)
	validJSON := func(b []byte) error {
		if !json.Valid(b) {
			return fmt.Errorf("invalid JSON body: %.120s", b)
		}
		return nil
	}
	go scraper("/traces", validJSON)
	go scraper("/traces?fmt=chrome", validJSON)

	// Three engine generations over the same coordinator: run, wait for
	// a couple of completed checkpoints, kill, restore into the next
	// generation — re-registering each generation into the same group
	// while the scrapers read it.
	for cycle := 0; cycle < 3; cycle++ {
		e, err := New(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.RegisterObs(reg.Group("engine"), jr)
		e.RegisterTrace(tracer)
		if cycle > 0 {
			if _, err := e.Restore(); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan *Result, 1)
		go func() {
			res, _ := e.Run(0)
			done <- res
		}()
		floor := co.Completed() + 2
		if !waitFor(10*time.Second, func() bool { return co.Completed() >= floor && e.SinkCount() > 0 }) {
			t.Fatal("no checkpoint completed within the deadline")
		}
		e.Kill()
		res := <-done
		if len(res.Errors) != 0 {
			t.Fatalf("cycle %d errors: %v", cycle, res.Errors)
		}
	}
	close(stop)
	select {
	case err := <-scrapeErr:
		t.Fatalf("scrape failed: %v", err)
	default:
	}
	if scrapes.Load() == 0 {
		t.Fatal("scrapers never completed a request")
	}

	// The journal must carry the whole lifecycle.
	evs := jr.Events(0)
	seen := map[string]int{}
	for _, ev := range evs {
		seen[ev.Type]++
	}
	for _, want := range []string{"run_start", "run_stop", "kill", "restore", "checkpoint_begin", "checkpoint_complete"} {
		if seen[want] == 0 {
			t.Errorf("journal has no %q event (saw %v)", want, seen)
		}
	}
	// Seqs must ascend strictly.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("journal seq not ascending: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// TestObsRegisterReplacesSeries pins the adaptive-segment contract: a
// second engine registered into the same group replaces the first's
// series instead of accumulating dead ones.
func TestObsRegisterReplacesSeries(t *testing.T) {
	topo := Topology{
		App:       sinkGraph(t, 1),
		Spouts:    map[string]func() Spout{"spout": func() Spout { return &seqSpout{limit: 4} }},
		Operators: map[string]func() Operator{"agg": func() Operator { return newSumOp() }},
	}
	reg := obs.NewRegistry(0)
	jr := obs.NewJournal(0)
	for i := 0; i < 2; i++ {
		e, err := New(topo, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e.RegisterObs(reg.Group("engine"), jr)
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "# TYPE brisk_sink_tuples_total"); n != 1 {
		t.Fatalf("expected exactly one brisk_sink_tuples_total family after re-registration, got %d\n%s", n, b.String())
	}
}

// TestObsWorkerParkWakeCounters: /metrics shows how often the workers
// parked and were woken, and a wake is owed to one park, so after a run
// the wakes never exceed the parks.
func TestObsWorkerParkWakeCounters(t *testing.T) {
	topo := Topology{
		App:       pipelineGraph(t),
		Spouts:    map[string]func() Spout{"spout": pacedRows(100, 200*time.Microsecond)},
		Operators: map[string]func() Operator{"double": doubler, "sink": sinkOp},
	}
	e, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(0)
	e.RegisterObs(reg.Group("engine"), obs.NewJournal(0))
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	var prom strings.Builder
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	value := func(name string) uint64 {
		for _, line := range strings.Split(prom.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return n
			}
		}
		t.Fatalf("/metrics has no %s series", name)
		return 0
	}
	parks, wakes := value("brisk_worker_parks_total"), value("brisk_worker_wakes_total")
	if parks == 0 || wakes > parks {
		t.Fatalf("parks %d, wakes %d: want parks > 0 on a paced spout and wakes <= parks", parks, wakes)
	}
}
