package main

// -live closes the loop the optimizer otherwise only predicts: the
// optimized plan is translated into an engine configuration
// (plan.Apply), executed on the real engine, which times every batch
// its operators consume, and the observed statistics are fed back through the adaptive advisor,
// which reports how far the calibrated baseline drifted from this
// machine's measured behaviour and whether re-optimization would pay.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"briskstream/internal/adaptive"
	"briskstream/internal/apps"
	"briskstream/internal/engine"
	"briskstream/internal/numa"
	"briskstream/internal/obs"
	"briskstream/internal/plan"
	"briskstream/internal/rlas"
)

// liveDrift publishes the advisor's observed-vs-baseline statistics to
// metric gauges: the supervise tick writes, scrapes read.
type liveDrift struct {
	mu  sync.Mutex
	te  map[string]float64 // observed per-tuple execution ns
	sel map[string]float64 // observed total selectivity
}

func (ld *liveDrift) update(op string, te, sel float64) {
	ld.mu.Lock()
	ld.te[op], ld.sel[op] = te, sel
	ld.mu.Unlock()
}

func (ld *liveDrift) get(m map[string]float64, op string) float64 {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	return m[op]
}

func runLive(a *apps.App, m *numa.Machine, r *rlas.Result, d time.Duration, metricsAddr string) error {
	ec, err := plan.Apply(r.Graph, r.Placement)
	if err != nil {
		return err
	}
	fmt.Println("\nengine config (plan.Apply):")
	var labels []string
	for label := range ec.Placement {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		fmt.Printf("  %-22s socket %d\n", label, ec.Placement[label])
	}

	// Execute the placement on the machine actually under us: fold the
	// model's sockets onto the detected host topology and let the engine
	// pin each task thread to its socket (where the OS supports it).
	host := numa.DetectHost()
	if n := len(host.Sockets); n < m.Sockets {
		ec.FoldOnto(n)
		fmt.Printf("  (placement folded onto the %d-socket host)\n", n)
	}

	cfg := engine.DefaultConfig()
	cfg.TraceSampleEvery = 64
	cfg.Placement = ec.Placement
	cfg.Host = host
	if numa.PinSupported() {
		fmt.Printf("pinning task threads to their sockets on %s\n", host)
	}
	e, err := engine.New(a.Topology(ec.Replication), cfg)
	if err != nil {
		return err
	}
	// Tracing is always on for -live (every 64th tuple): the critical-path
	// breakdown at the end attributes the measured latency to queue wait,
	// operator service, and transfer per operator.
	tracer := obs.NewTracer()
	e.RegisterTrace(tracer)
	adv, err := adaptive.New(a.Graph, a.Stats, r, adaptive.Config{Machine: m})
	if err != nil {
		return err
	}

	// -metrics: serve the engine's series plus rlas drift gauges — the
	// live observed statistics against the calibrated baselines the plan
	// was optimized with — so drift is watchable while the run profiles.
	var drift *liveDrift
	if metricsAddr != "" {
		reg := obs.NewRegistry(0)
		jr := obs.NewJournal(0)
		e.RegisterObs(reg.Group("engine"), jr)
		drift = &liveDrift{te: map[string]float64{}, sel: map[string]float64{}}
		g := reg.Group("rlas")
		for op, base := range a.Stats {
			l := []obs.L{{Key: "op", Value: op}}
			base := base
			g.Gauge("rlas_te_observed_ns", "Live-profiled per-tuple execution time.", l, func() float64 {
				return drift.get(drift.te, op)
			})
			g.Gauge("rlas_te_baseline_ns", "Calibrated per-tuple execution time the plan assumed.", l, func() float64 {
				return base.Te
			})
			g.Gauge("rlas_selectivity_observed", "Live-profiled total selectivity.", l, func() float64 {
				return drift.get(drift.sel, op)
			})
			g.Gauge("rlas_selectivity_baseline", "Calibrated total selectivity the plan assumed.", l, func() float64 {
				return base.TotalSelectivity()
			})
		}
		srv, err := obs.Serve(metricsAddr, reg, jr, tracer)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("telemetry: http://%s/metrics (traces at /traces)\n", srv.Addr())
	}

	fmt.Printf("\nrunning live for %v...\n", d)
	done := make(chan *engine.Result, 1)
	go func() {
		res, _ := e.Run(d)
		done <- res
	}()
	tick := time.NewTicker(d / 4)
	defer tick.Stop()
	var res *engine.Result
	for res == nil {
		select {
		case res = <-done:
		case <-tick.C:
			if err := adv.RecordEngine(e.ProfileSnapshot()); err != nil {
				return err
			}
			if drift != nil {
				if observed, err := adv.ObservedStats(); err == nil {
					for op, st := range observed {
						drift.update(op, st.Te, st.TotalSelectivity())
					}
				}
			}
		}
	}
	if len(res.Errors) != 0 {
		return res.Errors[0]
	}
	fmt.Printf("measured: %.1f K in-tuples/s over %v\n", ingestRate(a, res)/1000, res.Duration.Round(time.Millisecond))

	observed, err := adv.ObservedStats()
	if err != nil {
		return err
	}
	fmt.Println("\nlive-profiled statistics (observed vs. calibrated baseline):")
	var ops []string
	for op := range observed {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		st, base := observed[op], a.Stats[op]
		fmt.Printf("  %-12s Te %8.1f ns (base %8.1f)   selectivity %6.2f (base %6.2f)\n",
			op, st.Te, base.Te, st.TotalSelectivity(), base.TotalSelectivity())
	}

	printBottlenecks(tracer)

	rec, err := adv.Evaluate()
	if err != nil {
		return err
	}
	fmt.Printf("\nadvisor: drifted=%v  current plan predicts %.1f K/s under observed stats",
		rec.DriftedOperators, rec.CurrentPredicted/1000)
	if rec.Reoptimize {
		fmt.Printf("\n  -> re-optimize: fresh plan predicts %.1f K/s (replication %v)\n",
			rec.NewPredicted/1000, rec.Plan.Replication)
	} else {
		fmt.Println("\n  -> keep the current plan")
	}
	return nil
}

// printBottlenecks renders the tracer's critical-path analysis: per
// operator, how much of the traced tuples' end-to-end latency was spent
// waiting in queues, in the operator itself, and in transfer.
func printBottlenecks(tr *obs.Tracer) {
	an := tr.Analyze()
	if an.Traces == 0 {
		return
	}
	fmt.Printf("\ncritical path (%d traced tuples, mean e2e %.2f ms):\n",
		an.Traces, float64(an.MeanE2eNs)/1e6)
	fmt.Printf("  %-12s %10s %10s %10s %7s\n", "op", "queue µs", "service µs", "transfer µs", "share")
	for _, op := range an.Ops {
		fmt.Printf("  %-12s %10.1f %10.1f %10.1f %6.1f%%\n",
			op.Op, float64(op.QueueNs)/1e3, float64(op.ServiceNs)/1e3,
			float64(op.TransferNs)/1e3, op.Share*100)
	}
}

// ingestRate sums the spout processing rate of one run.
func ingestRate(a *apps.App, res *engine.Result) float64 {
	var ingested uint64
	for _, n := range a.Graph.Spouts() {
		ingested += res.Processed[n.Name]
	}
	if s := res.Duration.Seconds(); s > 0 {
		return float64(ingested) / s
	}
	return 0
}
