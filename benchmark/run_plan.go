package main

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"briskstream/internal/apps"
	"briskstream/internal/bnb"
	"briskstream/internal/model"
	"briskstream/internal/numa"
	"briskstream/internal/rlas"
)

// planInput is one optimizer request, ready to run.
type planInput struct {
	planCase
	app     *apps.App
	machine *numa.Machine
	seed    map[string]int // rlas.SeedReplication
}

// planResult is one plan of one trial.
type planResult struct {
	Case       string  `json:"case"`
	Seconds    float64 `json:"seconds"`
	PredMtps   float64 `json:"pred_mtps"`
	Iterations int     `json:"iterations"`
	Explored   int     `json:"nodes_explored"`
	Feasible   bool    `json:"feasible"`
}

// planTrial is the four plans run once.
type planTrial struct {
	WallS float64      `json:"wall_s"`
	CPUS  float64      `json:"cpu_s"`
	Plans []planResult `json:"plans"`
}

// setUpPlan builds the optimizer's inputs: the apps' graphs and canned
// statistics, the paper's Table 2 machines, and the seeded replication
// cmd/rlas starts from. The inputs themselves are pinned — the planner
// has no random source — so -seed only orders the requests.
func setUpPlan(seed uint64) ([]planInput, error) {
	in := make([]planInput, 0, len(planCases))
	for _, c := range planCases {
		a := apps.ByName(c.App)
		if a == nil {
			return nil, fmt.Errorf("no app %q", c.App)
		}
		m := numa.ServerA()
		if c.Machine == "B" {
			m = numa.ServerB()
		}
		repl, err := rlas.SeedReplication(a.Graph, a.Stats, m.TotalCores(), planFill)
		if err != nil {
			return nil, fmt.Errorf("seed replication %s@%s: %w", c.App, c.Machine, err)
		}
		in = append(in, planInput{planCase: c, app: a, machine: m, seed: repl})
	}
	rand.New(rand.NewPCG(seed, 0)).Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	return in, nil
}

func optimize(in planInput, nodeLimit int) (*rlas.Result, error) {
	return rlas.Optimize(in.app.Graph, rlas.Config{
		Model:         &model.Config{Machine: in.machine, Stats: in.app.Stats, Ingress: model.Saturated},
		Compress:      planCompress,
		BnB:           bnb.Config{NodeLimit: nodeLimit},
		Initial:       in.seed,
		MaxIterations: planMaxIters,
	})
}

func runPlanTrial(in []planInput) (*planTrial, error) {
	t := &planTrial{}
	start, cpu0 := time.Now(), cpuSeconds()
	for _, c := range in {
		s := time.Now()
		r, err := optimize(c, planNodeLimit)
		if err != nil {
			return nil, fmt.Errorf("optimize %s@%s: %w", c.App, c.Machine, err)
		}
		explored := 0
		for _, it := range r.Trace {
			explored += it.Explored
		}
		t.Plans = append(t.Plans, planResult{
			Case: c.App + "@" + c.Machine, Seconds: time.Since(s).Seconds(),
			PredMtps: r.Eval.Throughput / 1e6, Iterations: r.Iterations,
			Explored: explored, Feasible: r.Eval.Feasible(),
		})
	}
	t.WallS, t.CPUS = time.Since(start).Seconds(), cpuSeconds()-cpu0
	return t, nil
}

// checkPlans counts the plans of a trial that are infeasible, predict
// less than their pinned floor, or differ from the first trial's.
func checkPlans(in []planInput, t, first *planTrial) int {
	failed := 0
	for i, p := range t.Plans {
		// Equal up to summation order: the model adds rates in map order.
		same := math.Abs(p.PredMtps-first.Plans[i].PredMtps) <= 1e-9*p.PredMtps
		if !p.Feasible || p.PredMtps < in[i].FloorMtps || !same {
			failed++
		}
	}
	return failed
}

// runPlan runs the optimizer workload: K trials of the four plans, the
// fastest trial is the value. A work unit is a plan.
func runPlan(rep *report, w *workload) error {
	in, setup, times, err := measureSetUp(func(int) ([]planInput, error) { return setUpPlan(rep.Seed) })
	if err != nil {
		return err
	}
	rep.SetupTimes = times
	k := min(max(w.Trials*rep.Seconds/defaultSeconds, 2), 2*w.Trials)
	rep.Env.Trials = k
	rep.Def = defHash(w.Name, planCases, planFill, planCompress, planNodeLimit, planMaxIters, k)
	if rep.Traced {
		return tracedPlan(rep, in)
	}

	for i := 0; i < k; i++ {
		t, err := runPlanTrial(in)
		if err != nil {
			return err
		}
		rep.PlanTrials = append(rep.PlanTrials, t)
		rep.OpsAttempted += len(t.Plans)
		rep.OpsFailed += checkPlans(in, t, rep.PlanTrials[0])
	}
	best := slices.MinFunc(rep.PlanTrials, func(a, b *planTrial) int { return cmp.Compare(a.WallS, b.WallS) })
	walls := column(rep.PlanTrials, func(t *planTrial) float64 { return t.WallS })
	var p50s, p99s []float64
	for _, t := range rep.PlanTrials {
		secs := column(t.Plans, func(p planResult) float64 { return p.Seconds })
		p50s = append(p50s, median(secs)*1e3)
		p99s = append(p99s, slices.Max(secs)*1e3)
	}
	plans := float64(len(in))
	rep.set("setup_s", initSeconds+setup)
	rep.set("input_tps", plans/best.WallS)
	rep.set("cpu_s_per_mrec", best.CPUS/plans*1e6)
	rep.set("latency_p50_ms", slices.Min(p50s))
	rep.detail("latency_p99_ms", "ms", slices.Min(p99s))
	planDetail(rep, best)
	rep.detail("harness.trial_median", "s", median(walls))
	rep.detail("harness.trial_spread_pct", "%", spreadPct(walls))
	return nil
}

// planDetail records the numbers ISSUE 12 names for rlas_plan: plan_s,
// plan_pred_mtps (the geometric mean of the predicted throughputs) and
// the seconds per case.
func planDetail(rep *report, t *planTrial) {
	logSum, digest := 0.0, uint64(0)
	for _, p := range t.Plans {
		logSum += math.Log(p.PredMtps)
		digest += mix(fnv(0, []byte(p.Case)) ^ uint64(math.Round(p.PredMtps*1e6)))
		rep.detail("rlas."+p.Case+"_s", "s", p.Seconds)
	}
	rep.Digest = fmt.Sprintf("%016x", digest)
	rep.detail("plan_s", "s", t.WallS)
	rep.detail("plan_pred_mtps", "Mevents/s", math.Exp(logSum/float64(len(t.Plans))))
}
