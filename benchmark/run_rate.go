package main

import (
	"slices"
	"time"
)

// stepResult is one open-loop step of one trial.
type stepResult struct {
	Step    string  `json:"step"`
	Offered float64 `json:"offered_rps"`
	trial
	// AchievedRPS is records through the sink per second, from the
	// first record's due time to the last sink arrival.
	AchievedRPS float64 `json:"achieved_rps"`
	CPUSPerMrec float64 `json:"cpu_s_per_mrec"`
	// GenLateMsMax is the latest the generator ever ran; BacklogGrowthMs
	// is its mean lateness over the last quarter of the step less that
	// over the first: a backlog that grows shows here before it shows
	// anywhere else.
	GenLateMsMax    float64 `json:"gen_late_ms_max"`
	BacklogGrowthMs float64 `json:"backlog_growth_ms"`
}

// runStep runs one step as an engine run of its own, to EOF.
func (p *prepared) runStep(st rateStep, seconds int, tr *tracer) (*stepResult, error) {
	n := int(st.Rate * st.Secs10 * float64(seconds) / defaultSeconds)
	t, err := p.run(n, runOpts{rate: st.Rate, tr: tr})
	if err != nil {
		return nil, err
	}
	r := &stepResult{Step: st.Name, Offered: st.Rate, trial: *t, CPUSPerMrec: t.CPUS / float64(n) * 1e6}
	if span := t.snk.last.Sub(t.src.start).Seconds(); span > 0 {
		r.AchievedRPS = float64(n) / span
	}
	var head, tail, nHead, nTail float64
	length := time.Duration(float64(n) / st.Rate * float64(time.Second))
	for _, l := range t.src.late {
		ms := float64(l.late) / 1e6
		r.GenLateMsMax = max(r.GenLateMsMax, ms)
		switch {
		case l.at < length/4:
			head, nHead = head+ms, nHead+1
		case l.at >= length*3/4:
			tail, nTail = tail+ms, nTail+1
		}
	}
	if nHead > 0 && nTail > 0 {
		r.BacklogGrowthMs = tail/nTail - head/nHead
	}
	return r, nil
}

// A step is sustainable when its p99 meets the limit, it achieved the
// offered rate, and the generator did not fall further behind.
const (
	sustainP99Ms     = 20
	sustainAchieved  = 0.99
	sustainBacklogMs = 1
)

// runRate runs the open-loop workload: K trials, each the three steps
// in ascending order. A step's value is the lowest over the trials.
func runRate(rep *report, w *workload) error {
	p, setup, times, err := measureSetUp(func(r int) (*prepared, error) { return setUp(w, rep.Seed, r) })
	if err != nil {
		return err
	}
	rep.SetupTimes = times
	rep.Def = defHash(w.Name, rateSteps, rep.Seconds, blockSize, w.Trials, p.blk.sum())
	if rep.Traced {
		return tracedRate(rep, p)
	}

	bySteps := map[string][]*stepResult{}
	for k := 0; k < w.Trials; k++ {
		var row []*stepResult
		for _, st := range rateSteps {
			r, err := p.runStep(st, rep.Seconds, nil)
			if err != nil {
				return err
			}
			row = append(row, r)
			bySteps[st.Name] = append(bySteps[st.Name], r)
			rep.OpsAttempted += r.N
			rep.OpsFailed += r.Failed
		}
		rep.RateTrials = append(rep.RateTrials, row)
	}

	var sustainable float64
	for _, st := range rateSteps {
		rs := bySteps[st.Name]
		rep.OpsFailed += checkAcross(w.Sink, trialsOf(rs))
		p50 := slices.Min(column(rs, func(r *stepResult) float64 { return r.P50Ms }))
		p99 := slices.Min(column(rs, func(r *stepResult) float64 { return r.P99Ms }))
		achieved := slices.Max(column(rs, func(r *stepResult) float64 { return r.AchievedRPS }))
		growth := slices.Min(column(rs, func(r *stepResult) float64 { return r.BacklogGrowthMs }))
		rep.detail("rate."+st.Name+".p50_ms", "ms", p50)
		rep.detail("rate."+st.Name+".p99_ms", "ms", p99)
		rep.detail("rate."+st.Name+".achieved_rps", "1/s", achieved)
		rep.detail("rate."+st.Name+".backlog_growth_ms", "ms", growth)
		if p99 <= sustainP99Ms && achieved >= sustainAchieved*st.Rate && growth <= sustainBacklogMs {
			sustainable = max(sustainable, st.Rate)
		}
		if st.Name == headlineStep {
			rep.Digest = rs[0].Digest
			rep.set("input_tps", achieved)
			rep.set("cpu_s_per_mrec", slices.Min(column(rs, func(r *stepResult) float64 { return r.CPUSPerMrec })))
			rep.set("latency_p50_ms", p50)
			rep.detail("latency_p99_ms", "ms", p99)
			rep.detail("harness.samples", "count", slices.Min(column(rs, func(r *stepResult) float64 { return float64(r.Samples) })))
		}
		rep.detail("harness.gen_late_ms_max."+st.Name, "ms", slices.Max(column(rs, func(r *stepResult) float64 { return r.GenLateMsMax })))
	}
	rep.OpsFailed = min(rep.OpsFailed, rep.OpsAttempted)
	rep.detail("rate.sustainable_rps", "1/s", sustainable)
	rep.set("setup_s", initSeconds+setup)
	return nil
}

func trialsOf(rs []*stepResult) []*trial {
	out := make([]*trial, len(rs))
	for i, r := range rs {
		out[i] = &r.trial
	}
	return out
}
