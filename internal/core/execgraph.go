package core

import (
	"fmt"
	"math"
	"sync"
)

// ExecGraph is the compiled, flat form of an event graph: the adjacency of
// every vertex in CSR (compressed sparse row) layout, a precomputed
// topological order, dense per-node strand weights, and a dense
// vertex → strand-ID mapping. It is the representation every traversal
// and runtime in this repository executes against; the pointer-shaped
// Graph keeps only the program and the materialized arrows, delegating
// all adjacency queries here.
//
// Vertices are numbered as in Graph: node n contributes start(n) = 2·n.ID
// and end(n) = 2·n.ID + 1. Strands are identified by their serial-elision
// index (position in Program.Leaves), so schedulers can keep ready lists
// of int32 IDs instead of *Node pointers.
//
// An ExecGraph is immutable after construction and safe for concurrent
// readers.
type ExecGraph struct {
	p *Program

	numVerts int

	// CSR adjacency: successors of v are succs[succOff[v]:succOff[v+1]],
	// predecessors are preds[predOff[v]:predOff[v+1]].
	succOff []int32
	succs   []int32
	predOff []int32
	preds   []int32

	topo        []int32 // topological order of all vertices
	topoStrands []int32 // strand IDs in topological order: a legal serial schedule
	indeg0      []int32 // initial indegree of every vertex

	leafWork []int64 // per node ID: strand work (0 for internal nodes)
	strandOf []int32 // per node ID: strand index, or -1 for internal nodes
	taskSize []int64 // per node ID: subtree footprint in words (s(t))
	parentOf []int32 // per node ID: parent node ID, -1 for the root

	wakeOnce sync.Once
	wake     *WakeGraph // strand-level collapse, built lazily by Wake

	prioOnce    sync.Once
	strandDepth []int64 // per strand: longest path to the sink, incl. own work
	prioInit    []int32 // initial-ready strands, deepest first
}

// newExecGraph compiles the event graph of p induced by the given dataflow
// arrows (packed node-ID pairs, see Graph.arrows). The tree edges
// (start/end nesting and strand start→end) are derived from the program;
// arrows contribute end(From) → start(To). Duplicate arrows produce
// parallel edges, so Graph.finish deduplicates first. It fails if the
// combined graph has a cycle.
func newExecGraph(p *Program, arrows []uint64) (*ExecGraph, error) {
	if err := checkCSRBounds(int64(len(p.Nodes)), countEventEdges(p, len(arrows))); err != nil {
		return nil, err
	}
	n := 2 * len(p.Nodes)
	e := &ExecGraph{
		p:        p,
		numVerts: n,
		succOff:  make([]int32, n+1),
		predOff:  make([]int32, n+1),
		leafWork: make([]int64, len(p.Nodes)),
		strandOf: make([]int32, len(p.Nodes)),
	}

	// Pass 1: count degrees. Offsets are accumulated shifted by one so the
	// fill pass can use them as write cursors.
	countEdge := func(u, v int32) {
		e.succOff[u+1]++
		e.predOff[v+1]++
	}
	forEachTreeEdge(p, countEdge)
	for _, a := range arrows {
		countEdge(arrowEdge(a))
	}
	for v := 0; v < n; v++ {
		e.succOff[v+1] += e.succOff[v]
		e.predOff[v+1] += e.predOff[v]
	}
	e.succs = make([]int32, e.succOff[n])
	e.preds = make([]int32, e.predOff[n])

	// Pass 2: fill, using the offset slots as cursors; afterwards
	// succOff[v] has advanced to the start of v+1's row, so shift back.
	fillEdge := func(u, v int32) {
		e.succs[e.succOff[u]] = v
		e.succOff[u]++
		e.preds[e.predOff[v]] = u
		e.predOff[v]++
	}
	forEachTreeEdge(p, fillEdge)
	for _, a := range arrows {
		fillEdge(arrowEdge(a))
	}
	for v := n; v > 0; v-- {
		e.succOff[v] = e.succOff[v-1]
		e.predOff[v] = e.predOff[v-1]
	}
	e.succOff[0] = 0
	e.predOff[0] = 0

	e.indeg0 = make([]int32, n)
	for v := 0; v < n; v++ {
		e.indeg0[v] = e.predOff[v+1] - e.predOff[v]
	}

	e.taskSize = make([]int64, len(p.Nodes))
	e.parentOf = make([]int32, len(p.Nodes))
	for _, node := range p.Nodes {
		if node.IsLeaf() {
			e.leafWork[node.ID] = node.Work
			e.strandOf[node.ID] = int32(node.leafLo)
		} else {
			e.strandOf[node.ID] = -1
		}
		e.taskSize[node.ID] = node.footprint.Words()
		if node.Parent != nil {
			e.parentOf[node.ID] = int32(node.Parent.ID)
		} else {
			e.parentOf[node.ID] = -1
		}
	}

	// Kahn topological order over the CSR, verifying acyclicity. A FIFO
	// queue is dequeued in the order it was filled, which is the order
	// being built, so topo is its own queue: the tail past head is what
	// is still waiting.
	indeg := e.InitIndegrees(nil)
	topo := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			topo = append(topo, int32(v))
		}
	}
	for head := 0; head < len(topo); head++ {
		for _, w := range e.Succ(topo[head]) {
			indeg[w]--
			if indeg[w] == 0 {
				topo = append(topo, w)
			}
		}
	}
	if len(topo) != n {
		return nil, fmt.Errorf("event graph has a cycle: the fire rules induce a circular dependency (%d of %d vertices ordered)", len(topo), n)
	}
	e.topo = topo

	e.topoStrands = make([]int32, 0, len(p.Leaves))
	for _, v := range topo {
		if s := e.strandOf[v>>1]; s >= 0 && v&1 == 0 {
			e.topoStrands = append(e.topoStrands, s)
		}
	}
	return e, nil
}

// arrowEdge returns the event edge end(From) → start(To) of a packed arrow.
func arrowEdge(a uint64) (u, v int32) { return int32(a>>32)<<1 | 1, int32(uint32(a)) << 1 }

// countEventEdges returns the total event-graph edge count (tree edges
// plus dataflow arrows) in 64-bit arithmetic, so the CSR bounds check
// runs before any int32 vertex or offset could overflow.
func countEventEdges(p *Program, arrows int) int64 {
	edges := int64(arrows)
	for _, node := range p.Nodes {
		if node.IsLeaf() {
			edges++ // start → end
		} else {
			edges += 2 * int64(len(node.Children)) // start→start(c), end(c)→end
		}
	}
	return edges
}

// checkCSRBounds rejects programs whose event graph does not fit the
// int32 CSR layout: vertex IDs are 2·|Nodes| int32s and the offset arrays
// index the edge list with int32 cursors, so exceeding either bound would
// silently corrupt adjacency rather than fail.
func checkCSRBounds(nodes, edges int64) error {
	if nodes > math.MaxInt32/2 {
		return fmt.Errorf("program has %d nodes; the int32 CSR vertex space holds at most %d", nodes, math.MaxInt32/2)
	}
	if edges > math.MaxInt32 {
		return fmt.Errorf("event graph has %d edges; the int32 CSR offsets hold at most %d", edges, math.MaxInt32)
	}
	return nil
}

// forEachTreeEdge enumerates the spawn-tree-induced event edges:
// start(n) → start(c) and end(c) → end(n) for children, and
// start(n) → end(n) for strands.
func forEachTreeEdge(p *Program, edge func(u, v int32)) {
	for _, node := range p.Nodes {
		if node.IsLeaf() {
			edge(StartVertex(node), EndVertex(node))
			continue
		}
		for _, c := range node.Children {
			edge(StartVertex(node), StartVertex(c))
			edge(EndVertex(c), EndVertex(node))
		}
	}
}

// Program returns the program this graph was compiled from.
func (e *ExecGraph) Program() *Program { return e.p }

// Wake returns the strand-level wake graph: the event graph with relay
// vertices chain-contracted away (see WakeGraph). It is collapsed once on
// first use and shared — trackers over the same ExecGraph reuse it — and
// is safe to request concurrently.
func (e *ExecGraph) Wake() *WakeGraph {
	e.wakeOnce.Do(func() { e.wake = newWakeGraph(e) })
	return e.wake
}

// NumVertices returns the number of event-graph vertices.
func (e *ExecGraph) NumVertices() int { return e.numVerts }

// Succ returns the successor vertices of v. The slice aliases the CSR
// storage; callers must not modify it.
func (e *ExecGraph) Succ(v int32) []int32 { return e.succs[e.succOff[v]:e.succOff[v+1]] }

// Pred returns the predecessor vertices of v. The slice aliases the CSR
// storage; callers must not modify it.
func (e *ExecGraph) Pred(v int32) []int32 { return e.preds[e.predOff[v]:e.predOff[v+1]] }

// Topo returns a topological order of all vertices. Shared; do not modify.
func (e *ExecGraph) Topo() []int32 { return e.topo }

// TopoStrands returns the strand IDs in topological order of their start
// vertices: a precomputed legal serial schedule of the whole program, so a
// single-threaded executor needs no readiness bookkeeping at all.
// Shared; do not modify.
func (e *ExecGraph) TopoStrands() []int32 { return e.topoStrands }

// Indeg0 returns the initial indegree of vertex v.
func (e *ExecGraph) Indeg0(v int32) int32 { return e.indeg0[v] }

// InitIndegrees copies the initial indegrees into dst (allocating when dst
// is too small) and returns it, for trackers that count down dependencies.
func (e *ExecGraph) InitIndegrees(dst []int32) []int32 {
	if cap(dst) < e.numVerts {
		dst = make([]int32, e.numVerts)
	}
	dst = dst[:e.numVerts]
	copy(dst, e.indeg0)
	return dst
}

// NumNodes returns the number of spawn tree nodes in the program.
func (e *ExecGraph) NumNodes() int { return len(e.p.Nodes) }

// TaskSize returns s(t) for the task rooted at the given node ID: the
// number of distinct words its subtree accesses, as used for space-bounded
// and locality-aware scheduling. Precomputed at compile so schedulers
// never walk the node tree or its footprint sets on a scheduling path.
func (e *ExecGraph) TaskSize(nodeID int32) int64 { return e.taskSize[nodeID] }

// ParentOf returns the parent node ID of the given node, or -1 for the
// root. Precomputed at compile for pointer-free ancestor walks.
func (e *ExecGraph) ParentOf(nodeID int32) int32 { return e.parentOf[nodeID] }

// StrandNode returns the node ID of the strand with the given strand ID.
func (e *ExecGraph) StrandNode(id int32) int32 { return int32(e.p.Leaves[id].ID) }

// NumStrands returns the number of strands (leaves) in the program.
func (e *ExecGraph) NumStrands() int { return len(e.p.Leaves) }

// Strand returns the strand node with the given ID (serial-elision index).
func (e *ExecGraph) Strand(id int32) *Node { return e.p.Leaves[id] }

// StrandID returns the strand ID of a leaf node.
func (e *ExecGraph) StrandID(leaf *Node) int32 { return int32(leaf.leafLo) }

// StrandWork returns the work of the strand with the given ID.
func (e *ExecGraph) StrandWork(id int32) int64 { return e.p.Leaves[id].Work }

// StrandStart returns the start vertex of the strand with the given ID.
func (e *ExecGraph) StrandStart(id int32) int32 { return StartVertex(e.p.Leaves[id]) }

// StrandEnd returns the end vertex of the strand with the given ID.
func (e *ExecGraph) StrandEnd(id int32) int32 { return EndVertex(e.p.Leaves[id]) }

// VertexStrand returns the strand ID owning vertex v (either endpoint),
// or -1 when v belongs to an internal node.
func (e *ExecGraph) VertexStrand(v int32) int32 { return e.strandOf[v>>1] }

// IsEnd reports whether v is an end vertex.
func (e *ExecGraph) IsEnd(v int32) bool { return v&1 == 1 }

// VertexNode returns the spawn tree node owning vertex v and whether v is
// the node's end vertex.
func (e *ExecGraph) VertexNode(v int32) (n *Node, isEnd bool) {
	return e.p.Nodes[v>>1], v&1 == 1
}

// EdgeWeight returns the weight contributed by traversing from u to v: the
// strand's work on start→end edges of strands, zero otherwise.
func (e *ExecGraph) EdgeWeight(u, v int32) int64 {
	if v == u+1 && u&1 == 0 {
		return e.leafWork[u>>1]
	}
	return 0
}
