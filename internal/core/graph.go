package core

import (
	"fmt"
	"slices"
)

// Arrow is a solid dataflow arrow between two spawn tree nodes: the task To
// may not start until the task From is done. Arrows between internal nodes
// carry the paper's all-to-all semantics, which the event graph encodes as
// an edge end(From) → start(To).
type Arrow struct {
	From, To *Node
}

// Graph is the event graph of a program: the executable form of the
// algorithm DAG implied by the spawn tree and the DAG Rewriting System.
//
// Every node n contributes two vertices, start(n) and end(n). Edges are:
//
//   - start(n) → start(c) and end(c) → end(n) for every child c of an
//     internal node n (a task begins before its parts; it ends after them);
//   - start(n) → end(n) with weight Work(n) for every strand n;
//   - end(u) → start(v) for every dataflow arrow u → v.
//
// The longest weighted path from start(root) to end(root) is the span T∞;
// a strand is ready to execute exactly when its start vertex has fired.
//
// The adjacency itself lives in a compiled ExecGraph (CSR arrays, topo
// order, strand IDs), built once when the DRS finishes; Graph's accessors
// delegate to it, and performance-sensitive consumers use Exec() directly.
type Graph struct {
	P *Program

	// arrows holds the dataflow arrows as node-ID pairs packed
	// From.ID<<32 | To.ID, so sorting by (From.ID, To.ID) is a plain
	// integer sort; sorted and deduplicated once the graph is finished.
	arrows []uint64

	eg *ExecGraph
}

// StartVertex returns the event-graph vertex for the start of node n.
func StartVertex(n *Node) int32 { return int32(2 * n.ID) }

// EndVertex returns the event-graph vertex for the end of node n.
func EndVertex(n *Node) int32 { return int32(2*n.ID + 1) }

// Exec returns the compiled flat form of the event graph.
func (g *Graph) Exec() *ExecGraph { return g.eg }

// addArrow validates and records a dataflow arrow. Duplicates are allowed
// here and removed wholesale when the graph is finished, so the DRS never
// pays a per-arrow hash lookup or map allocation.
func (g *Graph) addArrow(from, to *Node) error {
	if from == to {
		return fmt.Errorf("self-dependency on node %q", from.Label)
	}
	if from.Contains(to) || to.Contains(from) {
		return fmt.Errorf("arrow between nested tasks %q and %q", from.Label, to.Label)
	}
	g.arrows = append(g.arrows, uint64(from.ID)<<32|uint64(to.ID))
	return nil
}

// BuildGraph compiles an event graph directly from a frozen program and
// an explicit arrow set, bypassing the DAG Rewriting System. This is the
// entry point for producers that already know every dataflow edge —
// recorded executions of the dynamic runtime (see internal/dyn's replay
// compilation), generators, and tests that need precise degenerate
// topologies (single strand, extreme fan-in) without inventing fire
// rules for them. Arrows are validated like the DRS's own (no
// self-dependencies, no arrows between nested tasks), duplicates are
// removed, and compilation fails if the combined graph has a cycle.
func BuildGraph(p *Program, arrows []Arrow) (*Graph, error) {
	if p == nil {
		return nil, fmt.Errorf("nil program")
	}
	g := &Graph{P: p}
	for _, a := range arrows {
		if a.From == nil || a.To == nil {
			return nil, fmt.Errorf("arrow with nil endpoint")
		}
		if a.From.ID < 0 || a.From.ID >= len(p.Nodes) || p.Nodes[a.From.ID] != a.From ||
			a.To.ID < 0 || a.To.ID >= len(p.Nodes) || p.Nodes[a.To.ID] != a.To {
			return nil, fmt.Errorf("arrow endpoint %q → %q is not a node of the program", a.From.Label, a.To.Label)
		}
		if err := g.addArrow(a.From, a.To); err != nil {
			return nil, err
		}
	}
	if err := g.finish(); err != nil {
		return nil, err
	}
	return g, nil
}

// finish sort-deduplicates the arrows and compiles the event graph,
// verifying acyclicity.
func (g *Graph) finish() error {
	slices.Sort(g.arrows)
	g.arrows = slices.Compact(g.arrows)
	eg, err := newExecGraph(g.P, g.arrows)
	if err != nil {
		return err
	}
	g.eg = eg
	return nil
}

// Span returns T∞: the longest weighted path through the event graph,
// in units of strand work.
func (g *Graph) Span() int64 {
	dist := g.distances()
	return dist[EndVertex(g.P.Root)]
}

func (g *Graph) distances() []int64 {
	e := g.eg
	dist := make([]int64, e.NumVertices())
	for _, v := range e.Topo() {
		dv := dist[v]
		for _, w := range e.Succ(v) {
			if d := dv + e.EdgeWeight(v, w); d > dist[w] {
				dist[w] = d
			}
		}
	}
	return dist
}

// CriticalPath returns the strands on one longest weighted path, in
// execution order.
func (g *Graph) CriticalPath() []*Node {
	e := g.eg
	dist := g.distances()
	// Walk backwards from end(root), always stepping to a predecessor that
	// realizes the distance.
	var path []*Node
	v := EndVertex(g.P.Root)
	for {
		node, isEnd := e.VertexNode(v)
		if isEnd && node.IsLeaf() {
			path = append(path, node)
		}
		preds := e.Pred(v)
		if len(preds) == 0 {
			break
		}
		next := preds[0]
		for _, u := range preds {
			if dist[u]+e.EdgeWeight(u, v) == dist[v] {
				next = u
				break
			}
		}
		v = next
	}
	// Reverse into execution order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Parallelism returns T1 / T∞.
func (g *Graph) Parallelism() float64 {
	span := g.Span()
	if span == 0 {
		return 0
	}
	return float64(g.P.Work()) / float64(span)
}

// SortedArrows returns the arrows sorted by (From.ID, To.ID) and
// deduplicated, as node pairs. The compiled graph keeps ID pairs only, so
// the slice is built on each call: it is for validators, simulators and
// DOT output, not for anything on a build or run path.
func (g *Graph) SortedArrows() []Arrow {
	out := make([]Arrow, len(g.arrows))
	for i, a := range g.arrows {
		out[i] = Arrow{From: g.P.Nodes[a>>32], To: g.P.Nodes[uint32(a)]}
	}
	return out
}
