package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
)

// tracedPair runs one trial untraced and the same trial traced, writes
// the sampled spans, and fills the ledger metrics from the traced one.
// Wrapping must be invisible in the output: a traced digest that differs
// from the untraced one fails every record of the trial.
func tracedPair(rep *report, p *prepared, n int, o runOpts) (plain, traced *trial, err error) {
	if plain, err = p.run(n, o); err != nil {
		return nil, nil, err
	}
	o.tr = newTracer()
	if traced, err = p.run(n, o); err != nil {
		return nil, nil, err
	}
	if err := o.tr.writeSpans(filepath.Join(rep.outDir, rep.Workload+".spans.json")); err != nil {
		return nil, nil, err
	}
	rep.Trials = append(rep.Trials, plain, traced)
	rep.OpsAttempted += 2 * n
	rep.OpsFailed += plain.Failed + traced.Failed
	if p.w.Sink != sinkLR && traced.Digest != plain.Digest {
		rep.OpsFailed += n
	}
	rep.Digest = plain.Digest
	return plain, traced, ledgerMetrics(rep, p, plain, traced, o.tr)
}

const maxLedgerResidualPct = 5

// ledgerMetrics derives the per-layer numbers of a traced trial from
// its ledger. Rates are per input record of the trial.
func ledgerMetrics(rep *report, p *prepared, plain, traced *trial, tr *tracer) error {
	rep.Ledger = tr.ledger()
	n, wall := float64(traced.N), float64(tr.wall)
	var source, service, sink, keyed, send, outs, idle, bottleneck, residual, path float64
	for i := range rep.Ledger {
		l := &rep.Ledger[i]
		if l.Role == "source" {
			// An open-loop source sleeps inside Next until the next tick:
			// that is waiting, not work.
			l.SelfNs -= int64(traced.src.slept)
			l.IdleNs += int64(traced.src.slept)
		}
		self := float64(l.SelfNs)
		switch l.Role {
		case "source":
			source += self
		case "sink":
			sink += self
		default:
			service += self
		}
		if slices.Contains(p.w.Keyed, l.Task) {
			keyed += self
		}
		send += float64(l.SendNs)
		outs += float64(l.RecordsOut)
		idle += float64(l.IdleNs)
		bottleneck = max(bottleneck, self/wall)
		residual = max(residual, l.ResidualPct)
		if l.Calls > 0 {
			path += self / float64(l.Calls)
		}
	}
	rep.set("apps.source_ns_per_rec", source/n)
	rep.set("apps.service_ns_per_rec", service/n)
	rep.set("apps.sink_ns_per_rec", sink/n)
	rep.set("apps.bottleneck_busy_pct", bottleneck*100)
	rep.set("apps.records_out_per_in", float64(traced.Rows)/n)
	rep.set("state.service_ns_per_rec", keyed/n)
	rep.set("engine.send_ns_per_out", send/max(outs, 1))
	wait := 0.0
	if mean := traced.MeanMs * 1e6; mean > path {
		wait = (1 - path/mean) * 100
	}
	rep.set("engine.wait_share_pct", wait)
	rep.set("engine.idle_pct", idle/(wall*float64(len(rep.Ledger)))*100)
	rep.set("engine.allocs_per_krec", float64(plain.Allocs)/n*1000)
	rep.set("queue.puts_per_krec", float64(plain.QueuePuts)/n*1000)
	rep.set("harness.ledger_residual_pct", residual)
	if residual > maxLedgerResidualPct {
		return fmt.Errorf("%s: ledger residual %.2f %% of wall time, limit %d", p.w.Name, residual, maxLedgerResidualPct)
	}
	return nil
}

func overheadPct(plain, traced float64) float64 { return (traced/plain - 1) * 100 }

// tracedSat is the -trace 1 run of a saturation workload: the traced
// pair, the single-thread baseline on half the records, the one extra
// trial some workloads carry, and every layer's microbenchmarks.
func tracedSat(rep *report, p *prepared, n int) error {
	plain, traced, err := tracedPair(rep, p, n, runOpts{})
	if err != nil {
		return err
	}
	rep.set("harness.trace_overhead_pct", overheadPct(traced.TPS, plain.TPS))

	extra := func(n int, o runOpts) (*trial, error) {
		t, err := p.run(n, o)
		if err == nil {
			rep.Trials = append(rep.Trials, t)
			rep.OpsAttempted += n
			rep.OpsFailed += t.Failed
		}
		return t, err
	}
	procs := runtime.GOMAXPROCS(1)
	p1, err := extra(max(n/2/blockSize, 1)*blockSize, runOpts{})
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return err
	}
	rep.detail("engine.p1_input_tps", "1/s", p1.TPS)
	rep.detail("engine.scaling_x", "x", plain.TPS/p1.TPS)

	switch p.w.Extra {
	case "checkpoint":
		t, err := extra(n, runOpts{tune: withCheckpoints})
		if err != nil {
			return err
		}
		rep.detail("checkpoint.overhead_pct", "%", overheadPct(t.TPS, plain.TPS))
	case "telemetry":
		t, err := extra(n, telemetry)
		if err != nil {
			return err
		}
		rep.detail("obs.overhead_pct", "%", overheadPct(t.TPS, plain.TPS))
	}
	return runMicro(rep)
}

// tracedRate is the -trace 1 run of the open-loop workload: the
// headline step untraced and traced.
func tracedRate(rep *report, p *prepared) error {
	i := slices.IndexFunc(rateSteps, func(s rateStep) bool { return s.Name == headlineStep })
	st := rateSteps[i]
	n := int(st.Rate * st.Secs10 * float64(rep.Seconds) / defaultSeconds)
	plain, traced, err := tracedPair(rep, p, n, runOpts{rate: st.Rate})
	if err != nil {
		return err
	}
	// The offered rate fixes the wall time, so tracing shows as CPU.
	rep.set("harness.trace_overhead_pct", overheadPct(plain.CPUS, traced.CPUS))
	return runMicro(rep)
}

// tracedPlan is the -trace 1 run of rlas_plan: one trial for the time
// per case, the microbenchmarks, and — the optimizer never touches the
// engine — a short wc_sat probe for the ledger metrics, which is also
// the witness that an optimizer change left the engine alone.
func tracedPlan(rep *report, in []planInput) error {
	t, err := runPlanTrial(in)
	if err != nil {
		return err
	}
	rep.PlanTrials = append(rep.PlanTrials, t)
	rep.OpsAttempted += len(t.Plans)
	rep.OpsFailed += checkPlans(in, t, t)
	planDetail(rep, t)

	probe, err := setUp(workloadByName("wc_sat"), rep.Seed, 0)
	if err != nil {
		return err
	}
	plain, traced, err := tracedPair(rep, probe, 4*blockSize, runOpts{})
	if err != nil {
		return err
	}
	rep.set("harness.trace_overhead_pct", overheadPct(traced.TPS, plain.TPS))
	return runMicro(rep)
}
