package main

import (
	"cmp"
	"fmt"
	"slices"
)

// scaleRecs sizes a trial for -seconds: Recs10 is the work of one trial
// at -seconds 10.
func scaleRecs(recs10, seconds int) int {
	n := recs10 / defaultSeconds * seconds
	return max(n/blockSize, 1) * blockSize
}

func defHash(parts ...any) string {
	return fmt.Sprintf("%016x", fnv(0, []byte(fmt.Sprint(parts...))))
}

// runSat runs a saturation workload: K closed-loop trials of n records
// each, then the open-loop load steps. Interference on a shared box only
// ever slows a trial, so the value of record is the fastest trial; the
// median and the spread go out as harness.* so the choice stays visible.
func runSat(rep *report, w *workload) error {
	n := scaleRecs(w.Recs10, rep.Seconds)
	p, setup, times, err := measureSetUp(func(r int) (*prepared, error) { return setUp(w, rep.Seed, r) })
	if err != nil {
		return err
	}
	rep.SetupTimes = times
	rep.Def = defHash(w.Name, n, blockSize, w.Trials, w.WmEvery, p.blk.sum())
	if rep.Traced {
		return tracedSat(rep, p, n)
	}

	for k := 0; k < w.Trials; k++ {
		t, err := p.run(n, runOpts{})
		if err != nil {
			return err
		}
		if err := checkAllocs(w, t); err != nil {
			return err
		}
		rep.Trials = append(rep.Trials, t)
		rep.OpsAttempted += n
		rep.OpsFailed += t.Failed
	}
	rep.OpsFailed = min(rep.OpsAttempted, rep.OpsFailed+checkAcross(w.Sink, rep.Trials))
	rep.Digest = rep.Trials[0].Digest

	best := slices.MaxFunc(rep.Trials, func(a, b *trial) int { return cmp.Compare(a.TPS, b.TPS) })
	tps, p50, p99 := column(rep.Trials, func(t *trial) float64 { return t.TPS }),
		column(rep.Trials, func(t *trial) float64 { return t.P50Ms }),
		column(rep.Trials, func(t *trial) float64 { return t.P99Ms })
	rep.set("setup_s", initSeconds+setup)
	rep.set("input_tps", best.TPS)
	rep.detail("sat.cpu_s_per_mrec", "s/Mrec", best.CPUS/float64(n)*1e6)
	rep.detail("sat.latency_p50_ms", "ms", slices.Min(p50))
	rep.detail("sat.latency_p99_ms", "ms", slices.Min(p99))

	var load []*stepResult
	for k := 0; k < loadTrials; k++ {
		r, err := p.runStep(loadStep(w), rep.Seconds, nil)
		if err != nil {
			return err
		}
		load = append(load, r)
		rep.OpsAttempted += r.N
		rep.OpsFailed += r.Failed
	}
	rep.RateTrials = append(rep.RateTrials, load)
	rep.OpsFailed = min(rep.OpsAttempted, rep.OpsFailed+checkAcross(w.Sink, trialsOf(load)))
	rep.set("cpu_s_per_mrec", slices.Min(column(load, func(r *stepResult) float64 { return r.CPUSPerMrec })))
	rep.set("latency_p50_ms", slices.Min(column(load, func(r *stepResult) float64 { return r.P50Ms })))
	rep.detail("latency_p99_ms", "ms", slices.Min(column(load, func(r *stepResult) float64 { return r.P99Ms })))
	rep.detail("load.achieved_rps", "1/s", slices.Max(column(load, func(r *stepResult) float64 { return r.AchievedRPS })))
	rep.detail("harness.gen_late_ms_max.load", "ms", slices.Max(column(load, func(r *stepResult) float64 { return r.GenLateMsMax })))
	rep.detail("harness.trial_median", "1/s", median(tps))
	rep.detail("harness.trial_spread_pct", "%", spreadPct(tps))
	rep.detail("harness.samples", "count", float64(best.Samples))
	rep.detail("engine.allocs_per_krec", "count", float64(best.Allocs)/float64(n)*1000)
	return nil
}

// checkAllocs fails the run if the steady-state path starts allocating:
// today it makes 3–8 allocations per 1 000 records, 27 on the wide
// vocabulary and 44 on LR.
func checkAllocs(w *workload, t *trial) error {
	if perK := float64(t.Allocs) / float64(t.N) * 1000; perK > maxAllocsPerKrec {
		return fmt.Errorf("%s: %.1f allocations per 1000 records, limit %d", w.Name, perK, maxAllocsPerKrec)
	}
	return nil
}

const maxAllocsPerKrec = 100
