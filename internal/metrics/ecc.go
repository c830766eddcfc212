package metrics

import (
	"math"

	"github.com/ndflow/ndflow/internal/core"
)

// ECC computes the effective cache complexity Q̂α(t;M) of the program's
// root task (Definition 2, read recursively as in [12], whose definition
// the paper's Defn. 2 generalizes and with which it "coincides for NP
// programs"):
//
//   - an M-maximal task has Q̂α = Q*(t;M) = s(t);
//   - a glue task combines its children's effective depths
//     ⌈Q̂α(c)/s(c)^α⌉ according to its composition construct — sum for
//     ";", max for "‖", and for "~>" the longest weighted chain of
//     M-maximal tasks through the construct's rewritten dependency DAG
//     (the chains(t,M) of Defn. 2) — and adds its own unit glue cost,
//     which scales by s(t)^α exactly like the c·(3N)^α terms in the
//     paper's Claim 2/3 recurrences;
//   - the work-dominated term is ⌈Σ Q̂α(c)/s(t)^α⌉ + 1.
//
// Q̂α(t) = s(t)^α · max(depth-dominated, work-dominated).
func ECC(g *core.Graph, m int64, alpha float64) float64 {
	return newECCEval(g, m, alpha).hatQ(g.P.Root)
}

// EffectiveDepth returns ⌈Q̂α(t;M)/s(t)^α⌉, the paper's proxy for span
// under space-bounded scheduling.
func EffectiveDepth(g *core.Graph, m int64, alpha float64) float64 {
	e := newECCEval(g, m, alpha)
	root := g.P.Root
	return math.Ceil(e.hatQ(root) / math.Pow(float64(root.Size()), alpha))
}

type joinSpec struct {
	uLo, uHi, vLo, vHi int32 // inclusive maximal-index ranges
}

type eccEval struct {
	g     *core.Graph
	m     int64
	alpha float64
	d     *Decomposition

	weights []float64 // ⌈s_i^{1-α}⌉ per maximal task
	preds   [][]int32 // direct maximal-to-maximal dependency edges
	joins   []joinSpec
	memo    map[int]float64
}

func newECCEval(g *core.Graph, m int64, alpha float64) *eccEval {
	e := &eccEval{g: g, m: m, alpha: alpha, memo: map[int]float64{}}
	e.d = Decompose(g.P.Root, m)
	e.weights = make([]float64, len(e.d.Maximal))
	for i, t := range e.d.Maximal {
		e.weights[i] = math.Ceil(math.Pow(float64(t.Size()), 1-alpha))
	}
	e.preds = make([][]int32, len(e.d.Maximal))
	// Arrows are already sorted and deduplicated, but distinct arrows can
	// collapse onto one maximal-task edge; dedup those with packed keys.
	seenE := map[uint64]bool{}
	seenJ := map[joinSpec]bool{}
	for _, a := range g.SortedArrows() {
		uLo, uHi := e.d.maximalRange(a.From)
		vLo, vHi := e.d.maximalRange(a.To)
		if uLo == uHi && vLo == vHi {
			if k := uint64(uLo)<<32 | uint64(uint32(vLo)); uLo != vLo && !seenE[k] {
				seenE[k] = true
				e.preds[vLo] = append(e.preds[vLo], int32(uLo))
			}
			continue
		}
		j := joinSpec{int32(uLo), int32(uHi), int32(vLo), int32(vHi)}
		if j.uHi >= j.vLo {
			// Endpoints fall inside one maximal task (or overlap at a
			// boundary); no cross-task ordering to record.
			continue
		}
		if !seenJ[j] {
			seenJ[j] = true
			e.joins = append(e.joins, j)
		}
	}
	return e
}

// hatQ returns Q̂α(t;M), memoized per node.
func (e *eccEval) hatQ(t *core.Node) float64 {
	if v, ok := e.memo[t.ID]; ok {
		return v
	}
	s := float64(t.Size())
	var result float64
	if t.Size() <= e.m || t.IsLeaf() {
		result = s
	} else {
		sAlpha := math.Pow(s, e.alpha)
		var depth, work float64
		effDepth := func(c *core.Node) float64 {
			return math.Ceil(e.hatQ(c) / math.Pow(float64(c.Size()), e.alpha))
		}
		switch t.Kind {
		case core.KindSeq:
			for _, c := range t.Children {
				depth += effDepth(c)
			}
		case core.KindPar:
			for _, c := range t.Children {
				depth = math.Max(depth, effDepth(c))
			}
		case core.KindFire:
			for _, c := range t.Children {
				depth = math.Max(depth, effDepth(c))
			}
			depth = math.Max(depth, e.flatChain(t))
		}
		var sumQ float64
		for _, c := range t.Children {
			sumQ += e.hatQ(c)
		}
		work = math.Ceil(sumQ / sAlpha)
		result = (math.Max(depth, work) + 1) * sAlpha // +1: the glue node's own cost
	}
	e.memo[t.ID] = result
	return result
}

// flatChain returns the longest weighted chain of M-maximal tasks within
// t's subtree, following dataflow arrows (Defn. 2's chains(t,M)).
func (e *eccEval) flatChain(t *core.Node) float64 {
	llo, lhi := t.LeafRange()
	lo := int32(e.d.leafToMax[llo-e.d.leafBase])
	hi := int32(e.d.leafToMax[lhi-1-e.d.leafBase])
	n := hi - lo + 1
	dist := make([]float64, n)
	// Join contributions: for each join inside the range, once all its
	// sources are processed the max source distance flows to every sink.
	type pending struct {
		j   joinSpec
		val float64
	}
	var pend []pending
	for _, j := range e.joins {
		if j.uLo >= lo && j.vHi <= hi {
			pend = append(pend, pending{j: j})
		}
	}
	var best float64
	for idx := lo; idx <= hi; idx++ {
		d := 0.0
		for _, p := range e.preds[idx] {
			if p >= lo && dist[p-lo] > d {
				d = dist[p-lo]
			}
		}
		for i := range pend {
			j := &pend[i]
			if idx == j.j.vLo {
				// All sources processed (uHi < vLo): snapshot their max.
				for u := j.j.uLo; u <= j.j.uHi; u++ {
					if dist[u-lo] > j.val {
						j.val = dist[u-lo]
					}
				}
			}
			if idx >= j.j.vLo && idx <= j.j.vHi && j.val > d {
				d = j.val
			}
		}
		d += e.weights[idx]
		dist[idx-lo] = d
		if d > best {
			best = d
		}
	}
	return best
}

// Sample is one (problem size, Q̂α/Q* ratio) observation used to estimate
// parallelizability.
type Sample struct {
	Size  int64   // input size s(t)
	Ratio float64 // Q̂α / Q*
}

// AlphaMax estimates the parallelizability αmax of an algorithm family:
// the largest α in the grid for which Q̂α(N;M) stays within a constant
// factor of Q*(N;M) as N grows. Graphs must be instances of increasing
// size (at least three). growthTol bounds the acceptable geometric growth
// of the ratio per size doubling (the paper's "≤ cU·Q*" with cU constant).
func AlphaMax(graphs []*core.Graph, m int64, grid []float64, growthTol float64) (float64, map[float64][]Sample) {
	curves := make(map[float64][]Sample, len(grid))
	alphaMax := 0.0
	for _, alpha := range grid {
		var samples []Sample
		for _, g := range graphs {
			q := float64(PCC(g.P, m))
			samples = append(samples, Sample{
				Size:  g.P.Root.Size(),
				Ratio: ECC(g, m, alpha) / q,
			})
		}
		curves[alpha] = samples
		bounded := true
		for i := 1; i < len(samples); i++ {
			sizeRatio := float64(samples[i].Size) / float64(samples[i-1].Size)
			doublings := math.Log2(sizeRatio)
			if doublings <= 0 {
				continue
			}
			growth := samples[i].Ratio / samples[i-1].Ratio
			if math.Pow(growth, 1/doublings) > growthTol {
				bounded = false
				break
			}
		}
		if bounded && alpha > alphaMax {
			alphaMax = alpha
		}
	}
	return alphaMax, curves
}

// Span returns T∞ of the graph (re-exported for the public API surface).
func Span(g *core.Graph) int64 { return g.Span() }

// Work returns T1 of the program.
func Work(p *core.Program) int64 { return p.Work() }
