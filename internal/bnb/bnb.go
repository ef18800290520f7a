// Package bnb implements BriskStream's branch-and-bound placement
// optimizer (Section 4, Algorithm 2). Nodes of the search tree are
// partial placements; the bounding function evaluates the performance
// model with every unplaced vertex treated as collocated with all of its
// producers (Tf = 0), which upper-bounds the throughput of every
// completion, so subtrees whose bound is no better than the incumbent
// solution are pruned safely.
//
// Three heuristics shrink the search space:
//
//  1. Collocation branching: the search branches on producer-consumer
//     pairs (edges), not single vertices, skipping placements that cannot
//     change any output rate.
//  2. Best-fit + redundancy elimination: when all predecessors of the
//     pair are already placed, the consumer's rate is fully determined,
//     so only the single best placement is explored; interchangeable
//     sockets (identical remaining resources and identical NUMA distance
//     to every already-used socket) are collapsed to one representative.
//  3. Graph compression is handled upstream by plan.Build's ratio, which
//     fuses replicas into fewer, heavier vertices.
package bnb

import (
	"bytes"
	"cmp"
	"errors"
	"slices"
	"strconv"
	"time"

	"briskstream/internal/model"
	"briskstream/internal/numa"
	"briskstream/internal/plan"
)

// ErrNoFeasiblePlacement is returned when no complete placement satisfies
// the resource constraints — the signal Algorithm 1 uses to stop scaling.
var ErrNoFeasiblePlacement = errors.New("bnb: no feasible placement")

// Config tunes the search.
type Config struct {
	// NodeLimit caps explored nodes (0 = default 200000). When the limit
	// is hit the best solution found so far is returned.
	NodeLimit int
	// WarmStart seeds the incumbent with a first-fit placement before
	// the search begins, enabling pruning from the first node (Appendix
	// D reports this helps in some cases by earlier pruning).
	WarmStart bool
	// NoDedup disables identical-sub-problem elimination (visited-state
	// detection); used by the ablation benchmarks.
	NoDedup bool
}

// Result is the outcome of a placement search.
type Result struct {
	// Placement is the best valid placement found.
	Placement *plan.Placement
	// Eval is the full model evaluation of Placement.
	Eval *model.Result
	// Explored and Pruned count search-tree nodes.
	Explored, Pruned int
	// Deduped counts nodes skipped because an identical partial
	// placement was already expanded via a different decision order
	// (the redundancy-elimination half of heuristic 2).
	Deduped int
	// Elapsed is the optimization wall time (Table 7 reports it).
	Elapsed time.Duration
}

type node struct {
	placement *plan.Placement
	// next indexes into the pair list: pairs[:next] are resolved.
	next int
	// eval is the bounded evaluation of placement; bound is its
	// throughput. The parent computes it when it creates the node, and
	// branch reuses it.
	eval  *model.Result
	bound float64
}

// bufs holds the buffers the search reuses from node to node.
type bufs struct {
	key      []byte // placement signature
	used     []bool // sockets holding a placed vertex
	usedList []int
	sig      []byte // socket signatures, back to back
	sigEnd   []int  // sig[sigEnd[i-1]:sigEnd[i]] is socket i's
	reps     []int
}

// Optimize searches for the throughput-maximizing placement of eg on
// cfg.Machine. It returns ErrNoFeasiblePlacement if the constraints admit
// no complete placement.
func Optimize(eg *plan.ExecGraph, cfg *model.Config, bc Config) (*Result, error) {
	start := time.Now()
	limit := bc.NodeLimit
	if limit <= 0 {
		limit = 200_000
	}
	pairs := eg.Pairs()
	res := &Result{}
	var sc bufs
	var err error

	root := &node{placement: plan.NewPlacement()}
	root.eval, err = model.Evaluate(eg, root.placement, cfg, model.Options{Bound: true})
	if err != nil {
		return nil, err
	}
	root.bound = root.eval.Throughput

	var best *plan.Placement
	var bestEval *model.Result
	bestValue := -1.0

	// Warm start: seed the incumbent with a first-fit-style greedy
	// placement so bound-based pruning is active from the first node.
	if bc.WarmStart {
		if p := greedyPlacement(eg, cfg); p != nil {
			if ev, err := model.Evaluate(eg, p, cfg, model.Options{}); err == nil && ev.Feasible() {
				best, bestEval, bestValue = p, ev, ev.Throughput
			}
		}
	}

	// visited detects identical partial placements reached through
	// different decision orders (redundancy elimination, heuristic 2).
	visited := map[string]bool{}
	byBound := func(a, b *node) int { return cmp.Compare(a.bound, b.bound) }

	stack := []*node{root}
	for len(stack) > 0 && res.Explored < limit {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.Explored++

		if bestValue >= 0 && n.bound <= bestValue {
			res.Pruned++
			continue
		}
		if !bc.NoDedup {
			sc.key = placementSignature(sc.key[:0], eg, n.placement)
			if visited[string(sc.key)] {
				res.Deduped++
				continue
			}
			visited[string(sc.key)] = true
		}

		// Advance past decisions whose endpoints are both placed
		// (collocation heuristic: such decisions are no longer relevant).
		next := n.next
		for next < len(pairs) && bothPlaced(n.placement, pairs[next]) {
			next++
		}

		if next >= len(pairs) {
			// All decisions resolved. Any vertex not covered by an edge
			// pair cannot exist in a validated graph, so the placement
			// is complete; accept it if valid.
			full, err := model.Evaluate(eg, n.placement, cfg, model.Options{})
			if err != nil {
				continue
			}
			if full.Feasible() && full.Throughput > bestValue {
				bestValue = full.Throughput
				best = n.placement
				bestEval = full
			}
			continue
		}

		children, err := branch(eg, cfg, &sc, n, pairs, next)
		if err != nil {
			return nil, err
		}
		// Push worse children first so the most promising is explored
		// next (DFS best-first hybrid): better incumbents earlier mean
		// more pruning later.
		slices.SortFunc(children, byBound)
		for _, c := range children {
			if bestValue >= 0 && c.bound <= bestValue {
				res.Pruned++
				continue
			}
			stack = append(stack, c)
		}
	}
	res.Elapsed = time.Since(start)
	if best == nil {
		return res, ErrNoFeasiblePlacement
	}
	res.Placement = best
	res.Eval = bestEval
	return res, nil
}

// placementSignature appends the canonical encoding of a (partial)
// placement to dst: one byte per vertex, 0xFF when unplaced.
func placementSignature(dst []byte, eg *plan.ExecGraph, p *plan.Placement) []byte {
	for i := range eg.Vertices {
		s, ok := p.SocketOf(plan.VertexID(i))
		if !ok {
			dst = append(dst, 0xFF)
		} else {
			dst = append(dst, byte(s))
		}
	}
	return dst
}

// greedyPlacement produces a quick feasible-if-possible placement for
// the warm start: topological first-fit with the sustained-demand gate.
func greedyPlacement(eg *plan.ExecGraph, cfg *model.Config) *plan.Placement {
	p := plan.NewPlacement()
	for _, id := range eg.TopoOrder() {
		cur, err := model.Evaluate(eg, p, cfg, model.Options{Bound: true})
		if err != nil {
			return nil
		}
		placed := false
		for s := 0; s < cfg.Machine.Sockets; s++ {
			if fits(eg, cfg, cur, p, s, id) {
				p.Place(id, numa.SocketID(s))
				placed = true
				break
			}
		}
		if !placed {
			// Fall back to the least-loaded socket; the final full
			// evaluation decides feasibility.
			bestS, bestCPU := 0, cur.CPUUsed[0]
			for s := 1; s < cfg.Machine.Sockets; s++ {
				if cur.CPUUsed[s] < bestCPU {
					bestS, bestCPU = s, cur.CPUUsed[s]
				}
			}
			p.Place(id, numa.SocketID(bestS))
		}
	}
	return p
}

func bothPlaced(p *plan.Placement, pair [2]plan.VertexID) bool {
	_, a := p.SocketOf(pair[0])
	_, b := p.SocketOf(pair[1])
	return a && b
}

// branch generates the children of n for the collocation decision
// pairs[next] = (producer, consumer).
func branch(eg *plan.ExecGraph, cfg *model.Config, sc *bufs, n *node, pairs [][2]plan.VertexID, next int) ([]*node, error) {
	prod, cons := pairs[next][0], pairs[next][1]
	m := cfg.Machine

	// The bounded evaluation of the current partial placement: child
	// feasibility gates and best-fit use its rates and socket usage.
	cur := n.eval

	_, prodPlaced := n.placement.SocketOf(prod)
	_, consPlaced := n.placement.SocketOf(cons)

	// Candidate placements for the pair: a group of vertices to add on
	// one socket.
	both := []plan.VertexID{prod, cons}
	type assign struct {
		vs []plan.VertexID
		s  int
	}
	var candidates []assign

	reps := sc.socketRepresentatives(eg, cfg, n.placement, cur)
	switch {
	case !prodPlaced && !consPlaced:
		for _, s := range reps {
			if fits(eg, cfg, cur, n.placement, s, both...) {
				candidates = append(candidates, assign{both, s})
			}
		}
		// Decision not satisfied: place the producer alone; the consumer
		// stays open for a later decision.
		for _, s := range reps {
			if fits(eg, cfg, cur, n.placement, s, both[:1]...) {
				candidates = append(candidates, assign{both[:1], s})
			}
		}
	case prodPlaced && !consPlaced:
		for _, s := range reps {
			if fits(eg, cfg, cur, n.placement, s, both[1:]...) {
				candidates = append(candidates, assign{both[1:], s})
			}
		}
	case !prodPlaced && consPlaced:
		for _, s := range reps {
			if fits(eg, cfg, cur, n.placement, s, both[:1]...) {
				candidates = append(candidates, assign{both[:1], s})
			}
		}
	}
	if len(candidates) == 0 {
		// Constraint-gated dead end: relax the fit gate so search can
		// continue; the full evaluation at the leaf still rejects
		// genuinely infeasible plans.
		vs := both[:1]
		switch {
		case !prodPlaced && !consPlaced:
			vs = both
		case prodPlaced && !consPlaced:
			vs = both[1:]
		}
		for _, s := range reps {
			candidates = append(candidates, assign{vs, s})
		}
	}

	children := make([]*node, 0, len(candidates))
	for _, c := range candidates {
		p := n.placement.Clone()
		for _, v := range c.vs {
			p.Place(v, numa.SocketID(c.s))
		}
		ev, err := model.Evaluate(eg, p, cfg, model.Options{Bound: true})
		if err != nil {
			return nil, err
		}
		children = append(children, &node{placement: p, next: next, eval: ev, bound: ev.Throughput})
	}

	// Best-fit heuristic: when every predecessor of the consumer is
	// already placed AND the consumer has no downstream operators, its
	// output rate is fully determined by this decision and its placement
	// cannot affect anything else — keep only the best child (ties
	// broken toward the socket with least remaining CPU). Applying the
	// greedy rule to vertices with consumers is unsafe: maximizing their
	// own output rate can exhaust the socket a downstream operator
	// needs, which is exactly the local-optimum trap the paper observes
	// in FF (Section 6.4).
	if prodPlaced && !consPlaced && len(eg.Out(cons)) == 0 &&
		allPredecessorsPlaced(eg, n.placement, cons) && len(children) > 1 {
		bestIdx, bestBound := 0, -1.0
		var bestRemain float64
		for i, c := range children {
			s, _ := c.placement.SocketOf(cons)
			remain := m.CyclesPerSocket - cur.CPUUsed[s]
			if c.bound > bestBound+1e-9 || (c.bound > bestBound-1e-9 && remain < bestRemain) {
				bestIdx, bestBound, bestRemain = i, c.bound, remain
			}
		}
		children = children[bestIdx : bestIdx+1]
	}
	return children, nil
}

// allPredecessorsPlaced reports whether every producer of v is placed.
func allPredecessorsPlaced(eg *plan.ExecGraph, p *plan.Placement, v plan.VertexID) bool {
	for _, e := range eg.In(v) {
		if _, ok := p.SocketOf(e.From); !ok {
			return false
		}
	}
	return true
}

// fits applies the branching feasibility gate: would adding the given
// vertices to socket s respect the CPU and local-bandwidth constraints?
// Demand must be estimated with the fetch cost the vertex would actually
// pay on socket s for its already-placed producers: the bounded (Tf=0)
// demand underestimates under-supplied remote consumers, whose real
// demand is In x (Te + Tf) — packing sockets to the brim with the
// optimistic estimate makes every completion infeasible.
func fits(eg *plan.ExecGraph, cfg *model.Config, cur *model.Result, p *plan.Placement, s int, vs ...plan.VertexID) bool {
	cpu := cur.CPUUsed[s]
	bw := cur.BWUsed[s]
	for _, v := range vs {
		cpuD, bwD := demandAt(eg, cfg, cur, p, v, numa.SocketID(s), vs)
		cpu += cpuD
		bw += bwD
	}
	return cpu <= cfg.Machine.CyclesPerSocket*(1+1e-9) && bw <= cfg.Machine.LocalBandwidth*(1+1e-9)
}

// demandAt estimates the CPU (ns/s) and memory-bandwidth (bytes/s)
// demand of vertex v if placed on socket s, charging Formula 2 for every
// producer that is already placed elsewhere. Producers being co-assigned
// in the same branching step (group) count as residing on s.
func demandAt(eg *plan.ExecGraph, cfg *model.Config, cur *model.Result, p *plan.Placement, v plan.VertexID, s numa.SocketID, group []plan.VertexID) (cpu, bw float64) {
	vtx := eg.Vertex(v)
	st := cfg.Stats[vtx.Op]
	vr := cur.Rates[v]
	t := st.Te
	if vr.In > 0 {
		var weighted float64
		for i, e := range eg.In(v) {
			fsock, placed := p.SocketOf(e.From)
			if !placed {
				if inGroup(e.From, group) {
					continue // co-assigned to s: local
				}
				continue // unplaced: optimistic zero (bound semantics)
			}
			if fsock != s {
				weighted += vr.InBy[i] * cfg.Machine.FetchCost(int(st.N), fsock, s)
			}
		}
		t += weighted / vr.In
	}
	cap := float64(vtx.Count) * 1e9 / t
	processed := vr.In
	if vtx.Spout || processed > cap {
		processed = cap
	}
	// Scale by the back-pressure sustained fraction from the bound
	// evaluation: upstream of a pipeline bottleneck a vertex never runs
	// at its capacity.
	if vr.Processed > 0 {
		processed *= vr.Sustained / vr.Processed
	}
	return processed * t, processed * st.M
}

func inGroup(v plan.VertexID, group []plan.VertexID) bool {
	for _, g := range group {
		if g == v {
			return true
		}
	}
	return false
}

// socketRepresentatives returns one socket per equivalence class
// (redundancy elimination). Two sockets are interchangeable when they
// carry identical CPU/bandwidth load and sit at identical NUMA distance
// from every socket currently in use. The returned slice is reused by
// the next call.
func (sc *bufs) socketRepresentatives(eg *plan.ExecGraph, cfg *model.Config, p *plan.Placement, cur *model.Result) []int {
	m := cfg.Machine
	sc.used = slices.Grow(sc.used[:0], m.Sockets)[:m.Sockets]
	clear(sc.used)
	for _, v := range eg.Vertices {
		if s, ok := p.SocketOf(v.ID); ok {
			sc.used[s] = true
		}
	}
	sc.usedList = sc.usedList[:0]
	for s, u := range sc.used {
		if u {
			sc.usedList = append(sc.usedList, s)
		}
	}

	sc.sig, sc.sigEnd, sc.reps = sc.sig[:0], sc.sigEnd[:0], sc.reps[:0]
	for s := 0; s < m.Sockets; s++ {
		start := len(sc.sig)
		sc.sig = signature(sc.sig, m, cur, s, sc.usedList)
		sc.sigEnd = append(sc.sigEnd, len(sc.sig))
		if !sc.seen(start) {
			sc.reps = append(sc.reps, s)
		}
	}
	return sc.reps
}

// seen reports whether the socket signature at sig[start:] equals that
// of a representative already chosen.
func (sc *bufs) seen(start int) bool {
	sig := sc.sig[start:]
	for _, r := range sc.reps {
		lo := 0
		if r > 0 {
			lo = sc.sigEnd[r-1]
		}
		if bytes.Equal(sc.sig[lo:sc.sigEnd[r]], sig) {
			return true
		}
	}
	return false
}

// signature appends socket s's equivalence key to dst: its CPU and
// bandwidth load (%.6g) and its distance to every used socket (%g).
func signature(dst []byte, m *numa.Machine, cur *model.Result, s int, usedList []int) []byte {
	dst = strconv.AppendFloat(dst, cur.CPUUsed[s], 'g', 6, 64)
	dst = append(dst, '|')
	dst = strconv.AppendFloat(dst, cur.BWUsed[s], 'g', 6, 64)
	for _, u := range usedList {
		dst = append(dst, '|')
		dst = strconv.AppendFloat(dst, m.L(numa.SocketID(s), numa.SocketID(u)), 'g', -1, 64)
	}
	return dst
}
