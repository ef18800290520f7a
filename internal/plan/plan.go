// Package plan represents streaming execution plans: the execution graph
// obtained by replicating each logical operator (Section 2.2), the
// placement of every replica onto CPU sockets, and the graph compression
// heuristic (Section 4, heuristic 3) that fuses multiple replicas of one
// operator into a single schedulable instance to shrink the search space.
package plan

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"briskstream/internal/graph"
	"briskstream/internal/numa"
)

// VertexID identifies a vertex of an execution graph.
type VertexID int

// Vertex is one schedulable unit: a group of Count replicas of one
// logical operator that are placed together. With compress ratio 1 every
// vertex holds exactly one replica (the most fine-grained optimization).
type Vertex struct {
	ID    VertexID
	Op    string // logical operator name
	Index int    // group index within the operator
	Count int    // number of fused replicas (>= 1)
	Spout bool
	Sink  bool
}

// Label renders "op#index" for reports.
func (v *Vertex) Label() string { return fmt.Sprintf("%s#%d", v.Op, v.Index) }

// Edge is a replica-level data flow with a rate share: the fraction (or
// multiple, for broadcast) of the producer vertex's output on Stream that
// flows along this edge.
type Edge struct {
	From, To VertexID
	Stream   string
	Share    float64
}

// ExecGraph is the execution graph: the logical DAG expanded by a
// replication configuration and optionally compressed.
type ExecGraph struct {
	App         *graph.Graph
	Vertices    []*Vertex
	Replication map[string]int // logical operator -> total replicas
	Ratio       int            // compress ratio used to build the graph

	out, in [][]Edge // indexed by VertexID
	byOp    map[string][]*Vertex
	order   []VertexID // topological, producers first
}

// Build expands the logical graph under the given replication
// configuration (operator name -> replica count; absent means 1) and
// compress ratio. Replicas of one operator are fused into
// ceil(replicas/ratio) vertices with counts as even as possible.
func Build(app *graph.Graph, replication map[string]int, ratio int) (*ExecGraph, error) {
	if ratio < 1 {
		return nil, fmt.Errorf("plan: compress ratio %d < 1", ratio)
	}
	eg := &ExecGraph{
		App:         app,
		Replication: map[string]int{},
		Ratio:       ratio,
		byOp:        map[string][]*Vertex{},
	}
	logical, err := app.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	for _, n := range app.Nodes() {
		repl := replication[n.Name]
		if repl <= 0 {
			repl = 1
		}
		eg.Replication[n.Name] = repl
		groups := (repl + ratio - 1) / ratio
		base, extra := repl/groups, repl%groups
		for i := 0; i < groups; i++ {
			count := base
			if i < extra {
				count++
			}
			v := &Vertex{
				ID:    VertexID(len(eg.Vertices)),
				Op:    n.Name,
				Index: i,
				Count: count,
				Spout: n.IsSpout,
				Sink:  n.IsSink,
			}
			eg.Vertices = append(eg.Vertices, v)
			eg.byOp[n.Name] = append(eg.byOp[n.Name], v)
		}
	}
	for _, op := range logical {
		for _, v := range eg.byOp[op] {
			eg.order = append(eg.order, v.ID)
		}
	}
	eg.out = make([][]Edge, len(eg.Vertices))
	eg.in = make([][]Edge, len(eg.Vertices))
	for _, le := range app.Edges() {
		prods := eg.byOp[le.From]
		cons := eg.byOp[le.To]
		total := eg.Replication[le.To]
		for _, p := range prods {
			switch le.Partitioning {
			case graph.Global:
				eg.addEdge(Edge{From: p.ID, To: cons[0].ID, Stream: le.Stream, Share: 1})
			case graph.Broadcast:
				for _, c := range cons {
					eg.addEdge(Edge{From: p.ID, To: c.ID, Stream: le.Stream, Share: float64(c.Count)})
				}
			default: // Shuffle, Fields: split in proportion to fused size
				for _, c := range cons {
					eg.addEdge(Edge{From: p.ID, To: c.ID, Stream: le.Stream, Share: float64(c.Count) / float64(total)})
				}
			}
		}
	}
	return eg, nil
}

func (eg *ExecGraph) addEdge(e Edge) {
	eg.out[e.From] = append(eg.out[e.From], e)
	eg.in[e.To] = append(eg.in[e.To], e)
}

// Out returns the outgoing edges of a vertex.
func (eg *ExecGraph) Out(id VertexID) []Edge { return eg.out[id] }

// In returns the incoming edges of a vertex.
func (eg *ExecGraph) In(id VertexID) []Edge { return eg.in[id] }

// Vertex returns the vertex with the given id.
func (eg *ExecGraph) Vertex(id VertexID) *Vertex { return eg.Vertices[id] }

// OfOp returns the vertices of one logical operator in index order.
func (eg *ExecGraph) OfOp(op string) []*Vertex { return eg.byOp[op] }

// TotalReplicas sums the replica counts across all vertices.
func (eg *ExecGraph) TotalReplicas() int {
	n := 0
	for _, v := range eg.Vertices {
		n += v.Count
	}
	return n
}

// TopoOrder returns vertex ids topologically ordered (producers first),
// following the logical operator order. Build computes it once; the
// slice is shared by every caller, which must not modify it.
func (eg *ExecGraph) TopoOrder() []VertexID { return eg.order }

// Pairs returns every producer-consumer vertex pair with a direct edge,
// in deterministic order. This is the collocation-decision list of the
// branch-and-bound heuristic 1.
func (eg *ExecGraph) Pairs() [][2]VertexID {
	seen := map[[2]VertexID]bool{}
	var out [][2]VertexID
	for _, id := range eg.TopoOrder() {
		for _, e := range eg.out[id] {
			k := [2]VertexID{e.From, e.To}
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// Placement maps vertices to sockets. It is dense: socketOf is indexed
// by VertexID and holds unplaced (-1) for vertices without a socket, so
// a lookup is an index and Clone is one slice copy.
type Placement struct {
	socketOf []numa.SocketID
	placed   int
}

// unplaced marks a vertex without a socket.
const unplaced numa.SocketID = -1

// NewPlacement returns an empty placement.
func NewPlacement() *Placement { return &Placement{} }

// Place assigns a vertex to a socket, growing the placement to cover v.
// Placing on socket -1 unplaces v.
func (p *Placement) Place(v VertexID, s numa.SocketID) {
	p.Unplace(v)
	if s == unplaced {
		return
	}
	if n := int(v) + 1 - len(p.socketOf); n > 0 {
		p.socketOf = slices.Grow(p.socketOf, n)
		for range n {
			p.socketOf = append(p.socketOf, unplaced)
		}
	}
	p.socketOf[v] = s
	p.placed++
}

// Unplace removes a vertex's assignment.
func (p *Placement) Unplace(v VertexID) {
	if int(v) < len(p.socketOf) && p.socketOf[v] != unplaced {
		p.socketOf[v] = unplaced
		p.placed--
	}
}

// SocketOf returns the socket of v and whether v is placed.
func (p *Placement) SocketOf(v VertexID) (numa.SocketID, bool) {
	if int(v) >= len(p.socketOf) || p.socketOf[v] == unplaced {
		return 0, false
	}
	return p.socketOf[v], true
}

// Placed returns the number of placed vertices.
func (p *Placement) Placed() int { return p.placed }

// Complete reports whether all vertices of eg are placed.
func (p *Placement) Complete(eg *ExecGraph) bool { return p.placed == len(eg.Vertices) }

// Clone deep-copies the placement.
func (p *Placement) Clone() *Placement {
	return &Placement{socketOf: slices.Clone(p.socketOf), placed: p.placed}
}

// Validate checks that every placed vertex refers to a valid vertex and
// socket, and (if requireComplete) that all vertices are placed exactly
// once — the "allocated exactly once" constraint of Section 3.2.
func (p *Placement) Validate(eg *ExecGraph, m *numa.Machine, requireComplete bool) error {
	for id, s := range p.socketOf {
		if s == unplaced {
			continue
		}
		if id >= len(eg.Vertices) {
			return fmt.Errorf("plan: placement refers to unknown vertex %d", id)
		}
		if int(s) < 0 || int(s) >= m.Sockets {
			return fmt.Errorf("plan: vertex %d placed on invalid socket %d", id, s)
		}
	}
	if requireComplete && !p.Complete(eg) {
		return fmt.Errorf("plan: only %d of %d vertices placed", p.placed, len(eg.Vertices))
	}
	return nil
}

// String renders the placement grouped by socket.
func (p *Placement) String(eg *ExecGraph) string {
	bySocket := map[numa.SocketID][]string{}
	for id, s := range p.socketOf {
		if s != unplaced {
			bySocket[s] = append(bySocket[s], eg.Vertex(VertexID(id)).Label())
		}
	}
	var sockets []int
	for s := range bySocket {
		sockets = append(sockets, int(s))
	}
	sort.Ints(sockets)
	var b strings.Builder
	for _, s := range sockets {
		names := bySocket[numa.SocketID(s)]
		sort.Strings(names)
		fmt.Fprintf(&b, "S%d: %s\n", s, strings.Join(names, ", "))
	}
	return b.String()
}

// Plan is a complete streaming execution plan: what runs where on which
// machine.
type Plan struct {
	Graph     *ExecGraph
	Machine   *numa.Machine
	Placement *Placement
}

// Validate checks the whole plan.
func (pl *Plan) Validate() error {
	if pl.Graph == nil || pl.Machine == nil || pl.Placement == nil {
		return fmt.Errorf("plan: incomplete plan")
	}
	if err := pl.Machine.Validate(); err != nil {
		return err
	}
	return pl.Placement.Validate(pl.Graph, pl.Machine, true)
}

// CollocateAll returns a placement putting every vertex on socket 0 —
// the initial node of the branch-and-bound search.
func CollocateAll(eg *ExecGraph) *Placement {
	p := NewPlacement()
	for _, v := range eg.Vertices {
		p.Place(v.ID, 0)
	}
	return p
}
