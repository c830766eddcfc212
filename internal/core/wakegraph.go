package core

import "math"

// WakeGraph is the strand-level collapse of an event graph: the paper's
// schedulers act on strands, and the internal start/end vertices exist
// only to encode nesting and fire semantics, so the compile step contracts
// them away. What remains is a CSR "wake list" per source — completing a
// strand (or firing a relay counter, below) delivers a fixed number of
// decrements to a fixed set of counters — turning readiness propagation
// into a flat loop over one CSR row instead of a DFS cascade over all
// 2·|Nodes| event vertices.
//
// Construction walks the residual event graph (everything not fired by the
// construction-time pre-cascade from source vertices) in reverse
// topological order and chain-contracts every relay vertex whose
// elimination does not grow the edge count: a vertex with per-run fan-in d
// and collapsed fan-out F is inlined into its predecessors when
// d·F ≤ d+F (always true for the seq/par spine case d = 1 or F ≤ 1, and
// for d = F = 2). The few high-fan-in × high-fan-out vertices — the join
// counters of wide parallel blocks — are kept as explicit relay counters,
// so a join stays one counter instead of a quadratic d×F edge blow-up.
//
// Contraction preserves the firing condition exactly. In the event graph a
// vertex fires when it has received one decrement per residual
// predecessor, each of which fires exactly once per run; inlining a
// contracted vertex v into its d predecessors replaces the single
// decrement v would have delivered to each waiter w with d direct
// decrements (one per predecessor of v), so w still fires exactly when
// every transitive source has fired. Parallel deliveries to one waiter
// from the same source are merged into a single weighted edge, so the
// per-completion cost is one atomic add per distinct waiter.
//
// Counters are indexed in one space shared with CSR rows: counter
// t < NumStrands is the ready gate of strand t, and counter
// t ≥ NumStrands is relay t, whose own wake list is row t. need[t] is the
// total decrement weight delivered to t per run — the counter's initial
// value, and the basis of the trackers' O(1) generation reset.
//
// A WakeGraph is immutable after construction and safe for concurrent
// readers.
type WakeGraph struct {
	eg *ExecGraph

	numStrands int
	numRelays  int
	// numSinks counts the strands whose completion row is empty.
	numSinks int

	// CSR wake lists: firing row i decrements counters
	// targets[wakeOff[i]:wakeOff[i+1]] by the matching weights.
	// Rows 0..numStrands-1 fire on strand completion; row numStrands+r
	// fires when relay r's counter is exhausted.
	wakeOff []int32
	targets []int32
	weights []int32

	// need[t] is the total decrement weight counter t receives per run.
	need []int32

	// initial holds the strands ready before any completion.
	initial []int32

	// eventDecrements is the number of atomic decrements one run of the
	// uncollapsed event-graph cascade performs (Σ residual out-degrees),
	// kept for benchmarks and the collapse-budget tests.
	eventDecrements int64
}

// wakeEntry is a (counter, weight) pair during construction. Weights are
// accumulated in int64: a contracted-edge weight is a residual path
// count, which adversarial relay-diamond chains can grow geometrically.
type wakeEntry struct {
	tgt int32
	wgt int64
}

// newWakeGraph collapses the compiled event graph. Called once per
// ExecGraph through ExecGraph.Wake.
func newWakeGraph(eg *ExecGraph) *WakeGraph {
	if w := buildWakeGraph(eg, true); w != nil {
		return w
	}
	// A contracted weight or counter need overflowed int32 (takes ~2³¹
	// parallel residual paths between two counters — never seen outside
	// adversarial DAGs). Rebuild without contraction: every unfired
	// non-gate vertex stays a relay, so weights are per-edge delivery
	// counts and needs equal residual indegrees, both within int32 by
	// the ExecGraph CSR bounds. Semantics are identical, only the
	// decrement count reverts to the event cascade's.
	w := buildWakeGraph(eg, false)
	if w == nil {
		panic("core: uncontracted wake graph overflowed int32 despite CSR bounds")
	}
	return w
}

// buildWakeGraph performs the collapse; with contract=false every relay
// vertex is kept as an explicit counter. It returns nil if any emitted
// weight or counter need would exceed int32 (only possible with
// contraction).
func buildWakeGraph(eg *ExecGraph, contract bool) *WakeGraph {
	n := eg.NumVertices()
	nStrands := eg.NumStrands()
	w := &WakeGraph{eg: eg, numStrands: nStrands}

	// Pre-cascade, identical to the one the event-graph tracker performed:
	// fire every source vertex; strand starts park as initially ready.
	// runDrop[v] is what remains — the decrements v receives during a run.
	runDrop := eg.InitIndegrees(nil)
	firedInit := make([]bool, n)
	var stack []int32
	for v := 0; v < n; v++ {
		if runDrop[v] == 0 {
			stack = append(stack, int32(v))
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s := eg.VertexStrand(v); s >= 0 && !eg.IsEnd(v) {
			w.initial = append(w.initial, s)
			continue
		}
		firedInit[v] = true
		for _, x := range eg.Succ(v) {
			runDrop[x]--
			if runDrop[x] == 0 {
				stack = append(stack, x)
			}
		}
	}
	for v := 0; v < n; v++ {
		// Every unfired vertex (including initially-ready strand starts)
		// fires exactly once per run, decrementing each successor.
		if !firedInit[v] {
			w.eventDecrements += int64(len(eg.Succ(int32(v))))
		}
	}

	// Collapse in reverse topological order: the expansion of v — the
	// merged list of counters firing v decrements, with contracted
	// successors inlined — is slab[expOff[v]:expEnd[v]], built in place at
	// the slab's tail. relayRow[v] ≥ 0 marks v kept as a relay counter
	// with that row index.
	slab := make([]wakeEntry, 0, len(eg.succs))
	expOff, expEnd := make([]int32, n), make([]int32, n)
	relayRow := make([]int32, n)
	for v := range relayRow {
		relayRow[v] = -1
	}
	var relayVerts []int32 // kept relays in row order

	// First-occurrence merge scratch: counters are < numStrands+n, and
	// stamping avoids clearing between vertices. Merging sums the weights
	// of duplicate deliveries while preserving discovery order, which
	// keeps ready-list order close to the event cascade's DFS order.
	mark := make([]int32, nStrands+n)
	slot := make([]int32, nStrands+n)
	var stampGen int32
	overflow := false
	addEntry := func(tgt int32, wgt int64) {
		if mark[tgt] == stampGen {
			if slab[slot[tgt]].wgt += wgt; slab[slot[tgt]].wgt > math.MaxInt32 {
				overflow = true
			}
			return
		}
		mark[tgt] = stampGen
		slot[tgt] = int32(len(slab))
		slab = append(slab, wakeEntry{tgt, wgt})
	}

	topo := eg.Topo()
	var totalEdges int
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		if firedInit[v] {
			continue
		}
		stampGen++
		expOff[v] = int32(len(slab))
		for _, x := range eg.Succ(v) {
			if s := eg.VertexStrand(x); s >= 0 && !eg.IsEnd(x) {
				addEntry(s, 1)
			} else if r := relayRow[x]; r >= 0 {
				addEntry(r, 1)
			} else {
				// A regrown slab leaves the old array readable.
				for _, e := range slab[expOff[x]:expEnd[x]] {
					addEntry(e.tgt, e.wgt)
				}
			}
		}
		expEnd[v] = int32(len(slab))
		f := int64(expEnd[v] - expOff[v])
		if s := eg.VertexStrand(v); s >= 0 && !eg.IsEnd(v) {
			// Strand start: its expansion is the strand's completion row.
			totalEdges += int(f)
			continue
		}
		d := int64(runDrop[v])
		if f > 0 && (!contract || (d >= 2 && f >= 2 && d*f > d+f)) {
			// High fan-in × fan-out (or contraction disabled): keep as a
			// relay counter so the join stays d+f edges instead of d·f.
			relayRow[v] = int32(nStrands + len(relayVerts))
			relayVerts = append(relayVerts, v)
			totalEdges += int(f)
		}
	}
	if overflow {
		return nil
	}

	// Emit the CSR: strand completion rows, then relay rows. Needs are
	// summed in int64 and bounds-checked so a contracted build can never
	// hand the trackers wrapped firing arithmetic.
	nRelays := len(relayVerts)
	w.numRelays = nRelays
	w.wakeOff = make([]int32, nStrands+nRelays+1)
	w.targets = make([]int32, 0, totalEdges)
	w.weights = make([]int32, 0, totalEdges)
	w.need = make([]int32, nStrands+nRelays)
	need64 := make([]int64, nStrands+nRelays)
	emit := func(row int, v int32) {
		w.wakeOff[row] = int32(len(w.targets))
		for _, e := range slab[expOff[v]:expEnd[v]] {
			w.targets = append(w.targets, e.tgt)
			w.weights = append(w.weights, int32(e.wgt))
			if need64[e.tgt] += e.wgt; need64[e.tgt] > math.MaxInt32 {
				overflow = true
			}
		}
	}
	for s := 0; s < nStrands; s++ {
		emit(s, eg.StrandStart(int32(s)))
		if w.wakeOff[s] == int32(len(w.targets)) {
			w.numSinks++
		}
	}
	for r, v := range relayVerts {
		emit(nStrands+r, v)
	}
	if overflow {
		return nil
	}
	for t, nd := range need64 {
		w.need[t] = int32(nd)
	}
	w.wakeOff[nStrands+nRelays] = int32(len(w.targets))
	return w
}

// Exec returns the event graph this wake graph was collapsed from.
func (w *WakeGraph) Exec() *ExecGraph { return w.eg }

// NumStrands returns the number of strand gates (program leaves).
func (w *WakeGraph) NumStrands() int { return w.numStrands }

// NumRelays returns the number of relay counters kept by the collapse.
func (w *WakeGraph) NumRelays() int { return w.numRelays }

// NumSinks returns the number of strands whose wake row is empty. Relay
// rows are never empty, so every strand reaches a sink through wake
// edges, and a run is over exactly when its sinks have completed.
func (w *WakeGraph) NumSinks() int { return w.numSinks }

// NumCounters returns the total counter count, |strands| + |relays| —
// the whole per-run mutable state of a tracker (the event graph needed
// 2·|Nodes| counters).
func (w *WakeGraph) NumCounters() int { return w.numStrands + w.numRelays }

// NumWakeEdges returns the number of weighted wake edges: the number of
// atomic decrements one full run performs.
func (w *WakeGraph) NumWakeEdges() int { return len(w.targets) }

// EventDecrements returns the number of atomic decrements one full run of
// the uncollapsed event-graph cascade performed, for comparison.
func (w *WakeGraph) EventDecrements() int64 { return w.eventDecrements }

// InitialReady returns the strands ready before any completion. Shared;
// callers must not modify it.
func (w *WakeGraph) InitialReady() []int32 { return w.initial }

// Need returns the per-run decrement total of counter t (its firing
// budget; 0 for the gates of initially-ready strands).
func (w *WakeGraph) Need(t int32) int32 { return w.need[t] }

// Row returns the wake list of row i (counters and decrement weights).
// Rows < NumStrands fire on strand completion; later rows when the
// matching relay counter exhausts. Shared; callers must not modify.
func (w *WakeGraph) Row(i int32) (targets, weights []int32) {
	return w.targets[w.wakeOff[i]:w.wakeOff[i+1]], w.weights[w.wakeOff[i]:w.wakeOff[i+1]]
}
