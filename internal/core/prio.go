package core

// Priority table: longest path to the sink per strand, computed once at
// compile time and cached on the ExecGraph.
//
// The depth-to-sink of a strand s is the weight of the heaviest
// remaining chain once s becomes ready: s's own work plus the longest
// weighted path from s's end vertex to the program's sink. No scheduler
// reads it: it serves `nddot -view prio` (WritePriorityDOT), the Span
// identity priority_test.go checks (the deepest initially-ready strand
// carries the whole span), and the exact T∞ in strands that a measured
// steal count can be held against (the O(P·T∞) steal bound). The table is a single reverse pass over the precomputed
// topological order, so it costs O(V+E) once per compiled graph.

// buildPrio fills strandDepth. Called via prioOnce.
func (e *ExecGraph) buildPrio() {
	depth := make([]int64, e.numVerts)
	for i := len(e.topo) - 1; i >= 0; i-- {
		v := e.topo[i]
		var best int64
		for _, w := range e.Succ(v) {
			if d := depth[w] + e.EdgeWeight(v, w); d > best {
				best = d
			}
		}
		depth[v] = best
	}
	sd := make([]int64, e.NumStrands())
	for s := range sd {
		sd[s] = depth[e.StrandStart(int32(s))]
	}
	e.strandDepth = sd
}

// StrandDepths returns the per-strand depth-to-sink table: for each
// strand ID, the longest weighted path from its start vertex to the
// program's sink, including the strand's own work. The maximum over
// initially-ready strands equals Span(). Built lazily on first use and
// shared; safe to request concurrently, do not modify.
func (e *ExecGraph) StrandDepths() []int64 {
	e.prioOnce.Do(e.buildPrio)
	return e.strandDepth
}

// StrandDepth returns the depth-to-sink of one strand.
func (e *ExecGraph) StrandDepth(id int32) int64 { return e.StrandDepths()[id] }
