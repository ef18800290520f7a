// Package model implements BriskStream's NUMA-aware rate-based
// performance model (Section 3). Given an execution plan (replication +
// placement on a machine) and per-operator statistics, it predicts the
// output rate of every replica (Formula 1), charges the remote-memory
// fetch penalty by relative producer-consumer location (Formula 2),
// identifies bottleneck (over-supplied) operators, checks the three
// resource-constraint families (Eq. 3-5) and reports the application
// throughput R = sum of sink output rates.
//
// The departure from classic rate-based optimization [Viglas & Naughton]
// that defines the paper: an operator's processing capability is NOT a
// constant — it depends on where the plan puts the operator relative to
// its producers.
//
// Evaluate sits in the branch-and-bound inner loop, so it allocates a
// fixed handful of slices per call whatever the graph size, keeps no
// maps, and walks every vertex in the cached topological order and every
// input in the execution graph's fixed edge order: the same graph and
// placement always evaluate to bit-identical results.
package model

import (
	"fmt"
	"math"

	"briskstream/internal/numa"
	"briskstream/internal/plan"
	"briskstream/internal/profile"
)

// TfPolicy selects how the data-fetch time Tf is derived. Normal is the
// RLAS model; Zero and WorstCase are the RLAS_fix(U) and RLAS_fix(L)
// ablations of Section 6.4, which fall back to the classic fixed-
// capability assumption.
type TfPolicy int

const (
	// TfByPlacement charges Formula 2 based on actual relative location.
	TfByPlacement TfPolicy = iota
	// TfZero ignores RMA entirely (upper-bound fixed model, RLAS_fix(U)).
	TfZero
	// TfWorstCase always charges the machine's maximum remote latency as
	// if every operator were anti-collocated from all its producers
	// (lower-bound fixed model, RLAS_fix(L)).
	TfWorstCase
)

// Config carries the model inputs that do not change across placements.
type Config struct {
	Machine *numa.Machine
	Stats   profile.Set
	// Ingress is I: the external input rate (tuples/sec) offered to each
	// spout operator. Use a very large value (e.g. math.MaxFloat64/4) to
	// model the saturated configuration the paper evaluates.
	Ingress float64
	// Policy selects the Tf derivation (default TfByPlacement).
	Policy TfPolicy
}

// Saturated is a convenient "sufficiently large" ingress rate.
const Saturated = 1e15

// VertexRate is the model's per-vertex output.
type VertexRate struct {
	// In is the total input rate ri (tuples/sec).
	In float64
	// InBy decomposes In by input edge, aligned with the execution
	// graph's In(id): InBy[i] is the rate arriving on In(id)[i], the
	// producer's Processed x Selectivity[stream] x Share. A producer
	// feeding the vertex on several streams owns several entries.
	InBy []float64
	// T is the effective per-tuple processing time Te + weighted Tf (ns).
	T float64
	// Tf is the input-weighted average fetch time component of T (ns).
	Tf float64
	// Capacity is the maximum processing rate: Count * 1e9 / T.
	Capacity float64
	// Processed is the expected processed rate min(In, Capacity); for
	// spouts In is the offered ingress.
	Processed float64
	// Sustained is the back-pressure steady-state processing rate:
	// Processed scaled down by downstream consumption (a producer
	// stalls on the first full consumer queue, so it cannot run faster
	// than its slowest consumer drains — the paper's footnote 2).
	// Resource accounting (Eq. 3-5) uses Sustained.
	Sustained float64
	// OverSupplied marks bottlenecks: In > Capacity (Case 1).
	OverSupplied bool
}

// Violation describes one broken resource constraint.
type Violation struct {
	Kind   string // "cpu", "membw", "channel"
	From   numa.SocketID
	To     numa.SocketID // equals From for cpu/membw
	Demand float64
	Limit  float64
}

func (v Violation) String() string {
	if v.Kind == "channel" {
		return fmt.Sprintf("channel S%d->S%d: demand %.3g > limit %.3g", v.From, v.To, v.Demand, v.Limit)
	}
	return fmt.Sprintf("%s S%d: demand %.3g > limit %.3g", v.Kind, v.From, v.Demand, v.Limit)
}

// Result is a full model evaluation of one plan.
type Result struct {
	// Throughput is R: the summed expected output (processed) rate of
	// all sink vertices, tuples/sec.
	Throughput float64
	// Rates holds the per-vertex details, indexed by VertexID.
	Rates []VertexRate
	// Bottlenecks lists over-supplied vertices in topological order.
	Bottlenecks []plan.VertexID
	// Violations lists broken constraints (empty for a valid plan).
	Violations []Violation
	// CPUUsed, BWUsed aggregate demand per socket; ChannelUsed[i][j]
	// aggregates cross-socket transfer demand.
	CPUUsed     []float64
	BWUsed      []float64
	ChannelUsed [][]float64
}

// Feasible reports whether the plan satisfies all resource constraints.
func (r *Result) Feasible() bool { return len(r.Violations) == 0 }

// Options tunes a single evaluation.
type Options struct {
	// Bound activates the branch-and-bound bounding function: vertices
	// not yet placed are treated as collocated with all of their
	// producers (Tf = 0) and excluded from resource accounting, which
	// yields a guaranteed upper bound on the throughput of any
	// completion of the partial placement.
	Bound bool
}

// Evaluate runs the performance model for the given execution graph and
// (possibly partial, when opts.Bound) placement.
func Evaluate(eg *plan.ExecGraph, placement *plan.Placement, cfg *Config, opts Options) (*Result, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("model: nil machine")
	}
	if err := cfg.Stats.Validate(); err != nil {
		return nil, err
	}
	if cfg.Ingress <= 0 {
		return nil, fmt.Errorf("model: ingress %v must be positive", cfg.Ingress)
	}
	if !opts.Bound {
		if err := placement.Validate(eg, cfg.Machine, true); err != nil {
			return nil, err
		}
	} else if err := placement.Validate(eg, cfg.Machine, false); err != nil {
		return nil, err
	}

	m := cfg.Machine
	order := eg.TopoOrder()
	edges := 0
	for _, id := range order {
		edges += len(eg.In(id))
	}
	// One backing array for every per-edge and per-socket sum; carve
	// hands out its consecutive pieces.
	S := m.Sockets
	flat := make([]float64, edges+2*S+S*S)
	carve := func(n int) []float64 {
		s := flat[:n:n]
		flat = flat[n:]
		return s
	}
	res := &Result{
		Rates:       make([]VertexRate, len(eg.Vertices)),
		CPUUsed:     carve(S),
		BWUsed:      carve(S),
		ChannelUsed: make([][]float64, S),
	}
	for i := range res.ChannelUsed {
		res.ChannelUsed[i] = carve(S)
	}

	maxLat := maxRemoteLatency(m)

	bottlenecks := 0
	for _, id := range order {
		v := eg.Vertex(id)
		st, ok := cfg.Stats[v.Op]
		if !ok {
			return nil, fmt.Errorf("model: no stats for operator %q", v.Op)
		}
		vr := &res.Rates[id]

		// Input rate: external for spouts, producer output otherwise.
		// Total ingress is split across spout vertices by fused replica
		// count (the operator's replication).
		if v.Spout {
			vr.In = cfg.Ingress * float64(v.Count) / float64(eg.Replication[v.Op])
		} else {
			in := eg.In(id)
			vr.InBy = carve(len(in))
			for i, e := range in {
				sel := cfg.Stats[eg.Vertex(e.From).Op].Selectivity[e.Stream]
				rate := res.Rates[e.From].Processed * sel * e.Share
				vr.InBy[i] = rate
				vr.In += rate
			}
		}

		// Effective fetch time: input-weighted over producers (tuples are
		// served first-come-first-serve with equal priority, so producers
		// contribute in proportion to their arrival rates).
		vr.Tf = fetchTime(eg, placement, cfg, &st, id, vr, maxLat)
		vr.T = st.Te + vr.Tf
		vr.Capacity = float64(v.Count) * 1e9 / vr.T

		vr.Processed = math.Min(vr.In, vr.Capacity)
		vr.OverSupplied = vr.In > vr.Capacity*(1+1e-12)
		if v.Sink {
			res.Throughput += vr.Processed
		}
		if vr.OverSupplied {
			bottlenecks++
		}
	}
	if bottlenecks > 0 {
		res.Bottlenecks = make([]plan.VertexID, 0, bottlenecks)
		for _, id := range order {
			if res.Rates[id].OverSupplied {
				res.Bottlenecks = append(res.Bottlenecks, id)
			}
		}
	}

	// Backward pass: back-pressure throttling. A vertex sustains only
	// the fraction of its forward-pass rate that its consumers actually
	// drain; the factor compounds upstream (a saturated spout feeding an
	// over-supplied pipeline does not burn a full core — the bounded
	// queues stall it).
	sustainFrac := make([]float64, len(eg.Vertices))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		vr := &res.Rates[id]
		f := 1.0
		for _, e := range eg.Out(id) {
			w := &res.Rates[e.To]
			if w.In <= 0 {
				continue
			}
			// Fraction of arrivals consumer e.To drains in steady state.
			consume := w.Processed / w.In * sustainFrac[e.To]
			if consume < f {
				f = consume
			}
		}
		sustainFrac[id] = f
		vr.Sustained = vr.Processed * f
	}

	// Resource accounting (Eq. 3-5) at sustained rates; skipped for
	// unplaced vertices under Bound.
	for _, id := range order {
		sock, placed := placement.SocketOf(id)
		if !placed {
			continue
		}
		vr := &res.Rates[id]
		st := cfg.Stats[eg.Vertex(id).Op]
		res.CPUUsed[sock] += vr.Sustained * vr.T
		res.BWUsed[sock] += vr.Sustained * st.M
		if vr.In > 0 {
			procShare := vr.Sustained / vr.In
			for i, e := range eg.In(id) {
				fsock, fplaced := placement.SocketOf(e.From)
				if fplaced && fsock != sock {
					res.ChannelUsed[fsock][sock] += vr.InBy[i] * procShare * st.N
				}
			}
		}
	}

	// Constraint checks (Eq. 3-5). CPU capacity is in attainable CPU
	// nanoseconds per second per socket.
	for s := 0; s < m.Sockets; s++ {
		if res.CPUUsed[s] > m.CyclesPerSocket*(1+1e-9) {
			res.Violations = append(res.Violations, Violation{Kind: "cpu", From: numa.SocketID(s), To: numa.SocketID(s), Demand: res.CPUUsed[s], Limit: m.CyclesPerSocket})
		}
		if res.BWUsed[s] > m.LocalBandwidth*(1+1e-9) {
			res.Violations = append(res.Violations, Violation{Kind: "membw", From: numa.SocketID(s), To: numa.SocketID(s), Demand: res.BWUsed[s], Limit: m.LocalBandwidth})
		}
		for d := 0; d < m.Sockets; d++ {
			if d == s {
				continue
			}
			if res.ChannelUsed[s][d] > m.Q(numa.SocketID(s), numa.SocketID(d))*(1+1e-9) {
				res.Violations = append(res.Violations, Violation{Kind: "channel", From: numa.SocketID(s), To: numa.SocketID(d), Demand: res.ChannelUsed[s][d], Limit: m.Q(numa.SocketID(s), numa.SocketID(d))})
			}
		}
	}
	return res, nil
}

// fetchTime computes the input-weighted average Tf for vertex id under
// the configured policy. Under Options.Bound semantics, any pair with an
// unplaced endpoint is treated as collocated (Tf contribution 0), which
// is what makes the bounding function an upper bound.
func fetchTime(eg *plan.ExecGraph, placement *plan.Placement, cfg *Config, st *profile.Stats, id plan.VertexID, vr *VertexRate, maxLat float64) float64 {
	switch cfg.Policy {
	case TfZero:
		return 0
	case TfWorstCase:
		if eg.Vertex(id).Spout {
			return 0
		}
		lines := math.Ceil(st.N / numa.CacheLineSize)
		return lines * maxLat
	}
	if vr.In <= 0 {
		return 0
	}
	sock, placed := placement.SocketOf(id)
	if !placed {
		return 0
	}
	var weighted float64
	for i, e := range eg.In(id) {
		fsock, fplaced := placement.SocketOf(e.From)
		if !fplaced || fsock == sock {
			continue
		}
		weighted += vr.InBy[i] * cfg.Machine.FetchCost(int(st.N), fsock, sock)
	}
	return weighted / vr.In
}

func maxRemoteLatency(m *numa.Machine) float64 {
	var max float64
	for i := 0; i < m.Sockets; i++ {
		for j := 0; j < m.Sockets; j++ {
			if i != j && m.Latency[i][j] > max {
				max = m.Latency[i][j]
			}
		}
	}
	if max == 0 && m.Sockets > 0 {
		max = m.Latency[0][0]
	}
	return max
}

// Demand summarizes one vertex's maximum resource appetite under the
// current rates: the CPU time and memory bandwidth it would consume per
// second if processing at its arrival rate (capped by capacity). The
// branch-and-bound "can these fit on a socket" gate uses it.
type Demand struct {
	CPU float64 // ns of CPU time per second
	BW  float64 // bytes/sec of local memory bandwidth
}

// VertexDemand extracts the demand of vertex id from a prior evaluation,
// at the back-pressure sustained rate.
func (r *Result) VertexDemand(eg *plan.ExecGraph, cfg *Config, id plan.VertexID) Demand {
	vr := r.Rates[id]
	st := cfg.Stats[eg.Vertex(id).Op]
	return Demand{CPU: vr.Sustained * vr.T, BW: vr.Sustained * st.M}
}

// RelativeError is the paper's model-accuracy metric:
// |measured - estimated| / measured (Section 6.2).
func RelativeError(measured, estimated float64) float64 {
	if measured == 0 {
		return math.Inf(1)
	}
	return math.Abs(measured-estimated) / measured
}
