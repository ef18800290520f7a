// Package sim is the execution substrate that replaces the paper's
// eight-socket servers: a deterministic fluid/discrete-time simulator
// that "runs" an execution plan on a numa.Machine descriptor. Replica
// groups are servers with service time Te + Tf (Formula 2), connected by
// bounded queues with back-pressure; per-socket CPU, per-socket DRAM
// bandwidth and per-socket-pair channel bandwidth are enforced as
// contention (oversubscribed resources proportionally slow their users,
// rather than being hard constraints as in the optimizer's model).
//
// The simulator deliberately includes second-order effects the
// analytical model omits, so that "measured" numbers differ from
// "estimated" ones the same way the paper's Tables 3-4 do:
//
//   - a hardware-prefetch discount that shrinks the effective RMA cost
//     of large (multi-cache-line) tuples — the reason the paper's
//     estimation overshoots for Splitter but not Counter (Table 3);
//   - engine overhead (instruction footprint, per-tuple queue costs,
//     centralized-scheduler contention) configured via Overhead, which
//     is how the Storm/Flink/StreamBox baselines are emulated.
package sim

import (
	"fmt"
	"math"

	"briskstream/internal/model"
	"briskstream/internal/numa"
	"briskstream/internal/plan"
	"briskstream/internal/profile"
)

// Overhead parameterizes the engine-class being simulated. The zero
// value plus ExecScale/RMAScale of 1 is the BriskStream engine.
type Overhead struct {
	// ExecScale multiplies Te: the instruction-footprint factor.
	// BriskStream = 1; Storm-like engines measured 4-20x larger function
	// execution time (Section 6.3).
	ExecScale float64
	// PerTupleNs is added to every tuple: the "Others" component (queue
	// access, object churn, context switches). Jumbo tuples amortize it
	// for BriskStream; per-tuple-insertion engines pay it in full.
	PerTupleNs float64
	// RMAScale multiplies the Formula 2 fetch cost (after the prefetch
	// discount). Engines with extra data shuffling pay > 1.
	RMAScale float64
	// CentralSchedNsPerCore models a centralized task scheduler with
	// locking: every tuple pays this many ns times the number of active
	// cores (StreamBox's morsel-driven scheduler, Section 6.3).
	CentralSchedNsPerCore float64
	// Prefetch enables the hardware-prefetch discount on RMA cost.
	Prefetch bool
}

// Brisk returns the BriskStream engine overhead profile.
func Brisk() Overhead { return Overhead{ExecScale: 1, RMAScale: 1, Prefetch: true} }

// PrefetchFactor scales a remote fetch cost by the number of cache lines
// fetched: sequential multi-line transfers engage the hardware
// prefetcher and cost much less than lines x latency, while single-line
// transfers see no benefit (and pay slightly more than the idle-latency
// estimate). Calibrated against the paper's Table 3: a ~1-line Counter
// tuple measures ~1.2x the estimate, a multi-line Splitter tuple ~0.35x.
func PrefetchFactor(lines float64) float64 {
	if lines < 1 {
		lines = 1
	}
	f := 1.25 - 0.65*(lines-1)
	if f < 0.3 {
		f = 0.3
	}
	return f
}

// Config carries simulation inputs.
type Config struct {
	Machine *numa.Machine
	Stats   profile.Set
	// Ingress is the offered external rate, tuples/sec.
	Ingress float64
	// Overhead selects the engine class (default Brisk()).
	Overhead Overhead
	// Duration is the simulated virtual time in seconds (default 2).
	Duration float64
	// Step is the simulation step in seconds (default 1e-3).
	Step float64
	// QueueTuples bounds each vertex input queue per fused replica
	// (default 10000); full queues exert back-pressure.
	QueueTuples float64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Overhead == (Overhead{}) {
		out.Overhead = Brisk()
	}
	if out.Overhead.ExecScale <= 0 {
		out.Overhead.ExecScale = 1
	}
	if out.Overhead.RMAScale <= 0 {
		out.Overhead.RMAScale = 1
	}
	if out.Duration <= 0 {
		out.Duration = 2
	}
	if out.Step <= 0 {
		out.Step = 1e-3
	}
	if out.QueueTuples <= 0 {
		out.QueueTuples = 10000
	}
	return out
}

// VertexStats reports one vertex's steady-state behaviour.
type VertexStats struct {
	// Processed is the tuples/sec consumed in the measurement window.
	Processed float64
	// Utilization is the fraction of its service capacity in use.
	Utilization float64
	// QueueLen is the average input queue length (tuples).
	QueueLen float64
	// EffectiveT is the per-tuple service time (ns) including overheads
	// and the (prefetch-discounted) RMA cost.
	EffectiveT float64
}

// Result is one simulation outcome.
type Result struct {
	// Throughput is the steady-state sink consumption rate (tuples/s),
	// measured over the second half of the run.
	Throughput float64
	// PerVertex holds steady-state stats indexed by VertexID.
	PerVertex []VertexStats
	// AvgLatencyNs approximates mean end-to-end latency by Little's law
	// (total queued tuples / throughput) plus service times.
	AvgLatencyNs float64
}

// EffectiveT computes the simulator's per-tuple processing time (ns) for
// an operator with statistics st, fetching from a producer at NUMA
// distance (i, j) under the given engine overhead. It is exported so the
// Table 3 experiment can print "measured" (simulated) vs "estimated"
// (model) values.
func EffectiveT(m *numa.Machine, st profile.Stats, i, j numa.SocketID, o Overhead, activeCores int) float64 {
	t := st.Te*o.ExecScale + o.PerTupleNs + o.CentralSchedNsPerCore*float64(activeCores)
	if i != j {
		lines := math.Ceil(st.N / numa.CacheLineSize)
		fetch := lines * m.L(i, j)
		if o.Prefetch {
			fetch *= PrefetchFactor(lines)
		}
		t += fetch * o.RMAScale
	}
	return t
}

// Run simulates the plan and returns steady-state measurements.
func Run(eg *plan.ExecGraph, placement *plan.Placement, cfgIn *Config) (*Result, error) {
	cfg := cfgIn.withDefaults()
	m := cfg.Machine
	if m == nil {
		return nil, fmt.Errorf("sim: nil machine")
	}
	if err := cfg.Stats.Validate(); err != nil {
		return nil, err
	}
	if err := placement.Validate(eg, m, true); err != nil {
		return nil, err
	}

	n := len(eg.Vertices)
	order := eg.TopoOrder()
	queue := make([]float64, n)   // input queue level, tuples
	qcap := make([]float64, n)    // queue capacity
	baseT := make([]float64, n)   // per-tuple service time (ns) incl. RMA
	procWin := make([]float64, n) // processed in measurement window
	qsum := make([]float64, n)    // queue level integral for averages
	slow := make([]float64, n)    // contention slowdown factor (>= 1)
	sinkWin := 0.0

	// Scheduler contention scales with the machine's core count: a
	// centralized (morsel-driven) scheduler has workers polling the
	// shared task queue from every core, regardless of how many replicas
	// the plan declares.
	activeCores := m.TotalCores()

	// Pre-compute effective service times from placement geometry.
	// Multiple producers at different distances are weighted by the
	// model's arrival decomposition.
	mdl := &model.Config{Machine: m, Stats: cfg.Stats, Ingress: cfg.Ingress}
	ev, err := model.Evaluate(eg, placement, mdl, model.Options{})
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		v := eg.Vertex(id)
		st := cfg.Stats[v.Op]
		sock, _ := placement.SocketOf(id)
		var t float64
		vr := ev.Rates[id]
		if vr.In > 0 && !v.Spout {
			for i, e := range eg.In(id) {
				fsock, _ := placement.SocketOf(e.From)
				t += (vr.InBy[i] / vr.In) * EffectiveT(m, st, fsock, sock, cfg.Overhead, activeCores)
			}
		}
		if t <= 0 {
			// Spouts, and operators whose modelled input rate is zero
			// (e.g. selectivity-0 streams), serve at their local rate.
			t = EffectiveT(m, st, sock, sock, cfg.Overhead, activeCores)
		}
		baseT[id] = t
		qcap[id] = cfg.QueueTuples * float64(v.Count)
		slow[id] = 1
	}

	steps := int(cfg.Duration / cfg.Step)
	half := steps / 2
	dt := cfg.Step

	spoutTotal := map[string]int{}
	for _, v := range eg.Vertices {
		if v.Spout {
			spoutTotal[v.Op] += v.Count
		}
	}

	cpuUse := make([]float64, m.Sockets)
	bwUse := make([]float64, m.Sockets)
	chanUse := make([][]float64, m.Sockets)
	for i := range chanUse {
		chanUse[i] = make([]float64, m.Sockets)
	}

	for step := 0; step < steps; step++ {
		measuring := step >= half
		// Reset per-step resource accounting.
		for i := range cpuUse {
			cpuUse[i] = 0
			bwUse[i] = 0
			for j := range chanUse[i] {
				chanUse[i][j] = 0
			}
		}

		for _, id := range order {
			v := eg.Vertex(id)
			st := cfg.Stats[v.Op]
			sock, _ := placement.SocketOf(id)

			// Service capacity this step (tuples), degraded by last
			// step's contention on this vertex's resources.
			mu := float64(v.Count) * 1e9 / baseT[id] / slow[id] * dt

			var take float64
			if v.Spout {
				take = math.Min(cfg.Ingress*float64(v.Count)/float64(spoutTotal[v.Op])*dt, mu)
			} else {
				take = math.Min(queue[id], mu)
			}

			// Back-pressure: an emitting vertex cannot exceed the
			// tightest downstream free space given its per-edge shares.
			for _, e := range eg.Out(id) {
				sel := st.Selectivity[e.Stream]
				perTake := sel * e.Share // consumer tuples per taken tuple
				if perTake <= 0 {
					continue
				}
				free := qcap[e.To] - queue[e.To]
				if free < 0 {
					free = 0
				}
				if limit := free / perTake; limit < take {
					take = limit
				}
			}

			if v.Spout {
				// nothing to dequeue
			} else {
				queue[id] -= take
			}
			// Emit.
			for _, e := range eg.Out(id) {
				queue[e.To] += take * st.Selectivity[e.Stream] * e.Share
			}

			// Resource accounting for next step's contention factors.
			cpuUse[sock] += take * baseT[id] / dt // ns of CPU per second
			bwUse[sock] += take * st.M / dt
			if !v.Spout {
				vr := ev.Rates[id]
				if vr.In > 0 {
					for i, e := range eg.In(id) {
						fsock, _ := placement.SocketOf(e.From)
						if fsock != sock {
							chanUse[fsock][sock] += (vr.InBy[i] / vr.In) * take * st.N / dt
						}
					}
				}
			}

			if measuring {
				procWin[id] += take
				qsum[id] += queue[id]
				if v.Sink {
					sinkWin += take
				}
			}
		}

		// Contention factors for the next step: a vertex is slowed by
		// the most oversubscribed resource it touches.
		for _, id := range order {
			v := eg.Vertex(id)
			sock, _ := placement.SocketOf(id)
			f := 1.0
			if u := cpuUse[sock] / m.CyclesPerSocket; u > f {
				f = u
			}
			if u := bwUse[sock] / m.LocalBandwidth; u > f {
				f = u
			}
			vr := ev.Rates[id]
			if !v.Spout && vr.In > 0 {
				for _, e := range eg.In(id) {
					fsock, _ := placement.SocketOf(e.From)
					if fsock != sock {
						if u := chanUse[fsock][sock] / m.Q(fsock, sock); u > f {
							f = u
						}
					}
				}
			}
			slow[id] = f
		}
	}

	winSec := float64(steps-half) * dt
	res := &Result{PerVertex: make([]VertexStats, n)}
	res.Throughput = sinkWin / winSec
	var queuedTotal float64
	for _, id := range order {
		v := eg.Vertex(id)
		rate := procWin[id] / winSec
		cap := float64(v.Count) * 1e9 / baseT[id]
		res.PerVertex[id] = VertexStats{
			Processed:   rate,
			Utilization: rate / cap,
			QueueLen:    qsum[id] / float64(steps-half),
			EffectiveT:  baseT[id],
		}
		queuedTotal += res.PerVertex[id].QueueLen
	}
	if res.Throughput > 0 {
		res.AvgLatencyNs = queuedTotal / res.Throughput * 1e9
		for _, id := range order {
			res.AvgLatencyNs += baseT[id]
		}
	}
	return res, nil
}
