// Package baseline emulates the competing systems BriskStream is
// evaluated against (Section 6.3): Apache Storm 1.1.1, Apache Flink
// 1.3.2 and StreamBox. Each system is described by the overhead class of
// its runtime — instruction footprint, per-tuple communication cost,
// scheduler contention — and by the placement/replication policy it
// would apply on a multi-socket machine — plus, for Storm and Flink, an
// EngineClass that runs the same overhead class on the real engine (see
// OnEngine). The numbers are calibrated from the paper's own
// measurements:
//
//   - Figure 8: Storm's function execution time is 4-20x BriskStream's
//     (front-end stalls from a large instruction footprint) and its
//     "Others" component is ~10x (per-tuple queue insertions, duplicate
//     headers, object churn).
//   - Flink is comparable to Storm overall, slightly leaner per tuple,
//     but pays a stream-merger (co-flat-map) penalty on operators with
//     multiple input streams, which hurts LR badly.
//   - StreamBox's morsel-driven engine is lean per tuple but serializes
//     on a centralized, lock-based task scheduler (cost grows with core
//     count) and its shuffle step crosses sockets for keyed state.
package baseline

import (
	"briskstream/internal/graph"
	"briskstream/internal/numa"
	"briskstream/internal/placement"
	"briskstream/internal/plan"
	"briskstream/internal/profile"
	"briskstream/internal/sim"
)

// System describes one emulated DSPS.
type System struct {
	// Name labels the system in reports.
	Name string
	// Overhead is the engine-class cost model fed to the simulator.
	Overhead sim.Overhead
	// MultiInputPenaltyNs is added to Te of every operator with more
	// than one distinct producer (Flink's co-flat-map stream merger).
	MultiInputPenaltyNs float64
	// Strategy picks the placement policy: "os" or "rr".
	Strategy string
	// Engine is the system's execution class on the real engine, applied
	// by OnEngine.
	Engine EngineClass
}

// Storm returns the Apache Storm overhead class: heavyweight execution
// path with (de)serialization, per-tuple transfers and no NUMA awareness
// (placement left to the OS).
func Storm() System {
	return System{
		Name: "Storm",
		Overhead: sim.Overhead{
			ExecScale:  6,
			PerTupleNs: 2800,
			RMAScale:   1,
			Prefetch:   true,
		},
		Strategy: "os",
		// The queue capacity is raised so the buffering budget in tuples
		// matches the engine default (64 slots x 64-tuple jumbos):
		// distributed engines buffer at least as much in their transport
		// layers, and a smaller buffer would understate their queueing
		// latency.
		Engine: EngineClass{Serialize: true, Copy: true, SpinNs: 500, BatchSize: 1, QueueCap: 64 * 64},
	}
}

// Flink returns the Apache Flink overhead class: leaner per-tuple path
// than Storm (operator chaining, managed memory), NUMA-aware only to the
// extent of one task manager per socket (round-robin spreading), plus
// the stream-merger penalty on multi-input operators.
func Flink() System {
	return System{
		Name: "Flink",
		Overhead: sim.Overhead{
			ExecScale:  5,
			PerTupleNs: 1600,
			RMAScale:   1,
			Prefetch:   true,
		},
		MultiInputPenaltyNs: 2500,
		Strategy:            "rr",
		// Leaner runtime than Storm, and Flink buffers too, with smaller
		// effective batches.
		Engine: EngineClass{Serialize: true, Copy: true, SpinNs: 200, BatchSize: 16, QueueCap: 64 * 64},
	}
}

// StreamBox returns the morsel-driven StreamBox engine with its
// order-guaranteeing containers enabled.
func StreamBox() System {
	return System{
		Name: "StreamBox",
		Overhead: sim.Overhead{
			ExecScale:             1.3,
			PerTupleNs:            900, // epoch containers, ordering state
			RMAScale:              1.6, // keyed shuffle crosses sockets
			CentralSchedNsPerCore: 30,  // lock-based central task queue
			Prefetch:              true,
		},
		Strategy: "os",
	}
}

// MorselReplication assigns each operator one replica per available core
// share without head-room halving: a morsel-driven engine keeps every
// core busy through its central task queue.
func MorselReplication(app *graph.Graph, m *numa.Machine) map[string]int {
	ops := app.Nodes()
	repl := map[string]int{}
	per := m.TotalCores() / len(ops)
	if per < 1 {
		per = 1
	}
	for _, n := range ops {
		repl[n.Name] = per
	}
	return repl
}

// StreamBoxOutOfOrder returns StreamBox with ordering disabled (the
// paper's modified variant): cheaper per tuple, same central scheduler.
func StreamBoxOutOfOrder() System {
	s := StreamBox()
	s.Name = "StreamBox (out-of-order)"
	s.Overhead.PerTupleNs = 250
	s.Overhead.ExecScale = 1.15
	return s
}

// Brisk returns BriskStream's own engine class for symmetric use of
// Measure in experiments (placement should normally come from RLAS, but
// Strategy is used when comparing placement-agnostic configurations).
func Brisk() System {
	return System{Name: "BriskStream", Overhead: sim.Brisk(), Strategy: "os"}
}

// AdjustStats returns the statistics as this system's runtime would
// exhibit them: the multi-input merger penalty is folded into Te of
// operators with several distinct producers.
func (s System) AdjustStats(app *graph.Graph, stats profile.Set) profile.Set {
	if s.MultiInputPenaltyNs == 0 {
		return stats
	}
	out := stats.Clone()
	for _, n := range app.Nodes() {
		if len(app.Producers(n.Name)) > 1 {
			st := out[n.Name]
			st.Te += s.MultiInputPenaltyNs
			out[n.Name] = st
		}
	}
	return out
}

// UniformReplication distributes roughly half the machine's core budget
// evenly over all operators (including spouts and sinks) — the "tune
// parallelism to the hardware, but without a model" configuration a
// practitioner would use for Storm/Flink. Half the budget reflects that
// without a performance model one leaves headroom rather than risking
// oversubscription.
func UniformReplication(app *graph.Graph, m *numa.Machine) map[string]int {
	ops := app.Nodes()
	repl := map[string]int{}
	if len(ops) == 0 {
		return repl
	}
	per := m.TotalCores() / len(ops) / 2
	if per < 1 {
		per = 1
	}
	for _, n := range ops {
		repl[n.Name] = per
	}
	return repl
}

// Measure simulates the system running the application on the machine:
// builds the execution graph with the system's replication policy,
// places it with the system's strategy and runs the fluid simulator with
// the system's overhead class. It returns steady-state throughput
// (tuples/sec at the sinks) and the simulation result.
func (s System) Measure(app *graph.Graph, stats profile.Set, m *numa.Machine, ingress float64, repl map[string]int) (*sim.Result, error) {
	if repl == nil {
		repl = UniformReplication(app, m)
	}
	adjusted := s.AdjustStats(app, stats)
	eg, err := plan.Build(app, repl, 1)
	if err != nil {
		return nil, err
	}
	var pl *plan.Placement
	switch s.Strategy {
	case "rr":
		pl = placement.RR(eg, m)
	default:
		pl = placement.OS(eg, m)
	}
	cfg := &sim.Config{
		Machine:  m,
		Stats:    adjusted,
		Ingress:  ingress,
		Overhead: s.Overhead,
	}
	return sim.Run(eg, pl, cfg)
}
