// Package spacebound implements the paper's space-bounded (SB) scheduler
// for ND programs on the Parallel Memory Hierarchy (§4).
//
// The scheduler maintains the two defining properties:
//
//   - Anchoring: a ready task is anchored to a cache with respect to
//     which it is maximal; all of its strands execute on processors in
//     the subcluster allocated beneath that cache.
//   - Boundedness: tasks anchored to a cache of size M occupy at most
//     σ·M words in total, for the dilation parameter σ ∈ (0, 1).
//
// An anchored task of size S at a level-k cache is allocated
// g_k(S) = min{f_k, max{1, ⌊f_k·(3S/M_k)^α'⌋}} level-(k−1) subclusters
// (α' = min{αmax, 1}), and its ready subtasks queue at the anchor. A
// processor searches its covering anchors from the lowest level upward,
// popping work: strands execute; tasks maximal at a lower level are
// re-anchored there (space permitting); remaining glue is unrolled in
// place, enqueueing exactly the subtasks whose external dataflow arrows
// are all satisfied — the ND readiness rule of Figure 12. A task's
// dataflow arrow is satisfied when its source subtree has fully executed.
//
// Engineering deviations from the paper's description, chosen to
// guarantee progress without its cache-fraction reservation machinery:
// when no candidate cache has σM space free, a strand executes under the
// current anchor and an internal task unrolls in place (both are counted
// in Stats as fallbacks). Scheduler bookkeeping costs zero simulated
// time, consistent with the paper's deferral of overhead measurement.
package spacebound

import (
	"fmt"
	"math"
	"sort"

	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/pmh"
	"github.com/ndflow/ndflow/internal/sim"
)

// Config parameterizes the scheduler.
type Config struct {
	// Sigma is the dilation parameter σ; the theorems use 1/3.
	Sigma float64
	// AlphaPrime is α' in the allocation function g; the paper sets it to
	// min{αmax, 1}. Zero means 1.
	AlphaPrime float64
}

// Stats counts scheduler activity.
type Stats struct {
	Anchors         int64 // anchors created (including the root)
	FallbackRuns    int64 // strands run without their own anchor for lack of space
	FallbackUnrolls int64 // tasks unrolled in place for lack of space
}

type status uint8

const (
	dormant     status = iota // parent not unrolled yet
	pendingUnit               // anchorable subtask waiting on full readiness (extIn)
	pendingGlue               // glue waiting on arrows aimed exactly at it (gateExact)
	queued                    // in some anchor's work stack
	anchored                  // owns an anchor
	finished
)

type anchor struct {
	task     *core.Node
	level    int   // unit level of the cache (1..H for caches, H+1 for memory)
	cacheIdx int   // index of the cache at that level (0 for memory)
	clusters []int // allocated level-(level−1) unit indices
	stack    []*core.Node
	done     bool
}

// Scheduler implements sim.Scheduler.
type Scheduler struct {
	cfg   Config
	ctx   *sim.Ctx
	spec  pmh.Spec
	H     int // number of cache levels
	procs int

	extIn      []int32 // unsatisfied arrows into the subtree from outside
	gateExact  []int32 // unsatisfied arrows whose sink is exactly this node
	leavesLeft []int32
	outArrows  [][]*core.Node // per node ID: arrow sink nodes
	status     []status
	homeAnchor []*anchor // per node ID: anchor whose stack the task joins

	cacheUsed     [][]int64 // [unitLevel-1][cacheIdx]
	clusterLoad   [][]int   // [unitLevel][unitIdx]
	anchorsByProc [][]*anchor
	allAnchors    []*anchor
	progress      uint64
	drain         []int32 // scratch for discarding tracker ready lists
	Stats         Stats
}

// Progress changes whenever anchoring, unrolling or readiness transitions
// occur, so the engine re-offers work surfaced by another processor's Pick.
func (s *Scheduler) Progress() uint64 { return s.progress }

// New returns a space-bounded scheduler with the given configuration.
func New(cfg Config) *Scheduler {
	if cfg.Sigma <= 0 || cfg.Sigma >= 1 {
		cfg.Sigma = 1.0 / 3
	}
	if cfg.AlphaPrime <= 0 {
		cfg.AlphaPrime = 1
	}
	return &Scheduler{cfg: cfg}
}

// --- topology helpers (unit level 0 = processors, 1..H = caches, H+1 = memory)

func (s *Scheduler) unitCount(level int) int {
	switch {
	case level == 0:
		return s.procs
	case level <= s.H:
		return s.spec.CacheCount(level - 1)
	default:
		return 1
	}
}

func (s *Scheduler) childCount(level int) int {
	if level == 1 {
		return s.spec.ProcsPerL1
	}
	return s.spec.Caches[level-2].Fanout
}

// procRange returns the processors covered by unit (level, idx).
func (s *Scheduler) procRange(level, idx int) (lo, hi int) {
	span := s.procs / s.unitCount(level)
	return idx * span, (idx + 1) * span
}

// unitsUnder returns the level-want unit indices under unit (level, idx).
func (s *Scheduler) unitsUnder(level, idx, want int) (lo, hi int) {
	span := s.unitCount(want) / s.unitCount(level)
	return idx * span, (idx + 1) * span
}

func (s *Scheduler) cacheSize(level int) int64 {
	if level > s.H {
		return math.MaxInt64
	}
	return s.spec.Caches[level-1].Size
}

// maximalLevel returns the lowest unit level whose cache σ-fits the size.
func (s *Scheduler) maximalLevel(size int64) int {
	for k := 1; k <= s.H; k++ {
		if float64(size) <= s.cfg.Sigma*float64(s.cacheSize(k)) {
			return k
		}
	}
	return s.H + 1
}

// allocation returns g_k(S) for an anchor at unit level k.
func (s *Scheduler) allocation(level int, size int64) int {
	f := s.childCount(level)
	if level > s.H {
		return f // the whole hierarchy for memory-anchored tasks
	}
	g := int(math.Floor(float64(f) * math.Pow(3*float64(size)/float64(s.cacheSize(level)), s.cfg.AlphaPrime)))
	if g < 1 {
		g = 1
	}
	if g > f {
		g = f
	}
	return g
}

// --- sim.Scheduler implementation

// Init builds readiness state and anchors the root task at the memory root.
func (s *Scheduler) Init(ctx *sim.Ctx) error {
	s.ctx = ctx
	s.spec = ctx.Machine.Spec
	// The topology helpers (procRange, unitsUnder) integer-divide their
	// way through a uniform tree; a malformed spec would hand out wrong —
	// even empty — processor ranges, so reject it before any anchoring.
	if err := s.spec.Validate(); err != nil {
		return fmt.Errorf("spacebound: %w", err)
	}
	s.H = s.spec.Levels()
	s.procs = s.spec.Processors()
	p := ctx.Graph.P

	n := len(p.Nodes)
	s.extIn = make([]int32, n)
	s.gateExact = make([]int32, n)
	s.leavesLeft = make([]int32, n)
	s.outArrows = make([][]*core.Node, n)
	s.status = make([]status, n)
	s.homeAnchor = make([]*anchor, n)
	for _, node := range p.Nodes {
		lo, hi := node.LeafRange()
		s.leavesLeft[node.ID] = int32(hi - lo)
	}
	for _, a := range ctx.Graph.SortedArrows() {
		s.outArrows[a.From.ID] = append(s.outArrows[a.From.ID], a.To)
		s.gateExact[a.To.ID]++
		for anc := a.To; anc != nil && !anc.Contains(a.From); anc = anc.Parent {
			s.extIn[anc.ID]++
		}
	}

	s.cacheUsed = make([][]int64, s.H)
	for k := 1; k <= s.H; k++ {
		s.cacheUsed[k-1] = make([]int64, s.unitCount(k))
	}
	s.clusterLoad = make([][]int, s.H+1)
	for k := 0; k <= s.H; k++ {
		s.clusterLoad[k] = make([]int, s.unitCount(k))
	}
	s.anchorsByProc = make([][]*anchor, s.procs)

	root := p.Root
	if s.extIn[root.ID] != 0 {
		return fmt.Errorf("spacebound: root task has external dependencies")
	}
	mem := &anchor{task: root, level: s.H + 1, cacheIdx: 0}
	for c := 0; c < s.unitCount(s.H); c++ {
		mem.clusters = append(mem.clusters, c)
		s.clusterLoad[s.H][c]++
	}
	s.attach(mem)
	s.status[root.ID] = queued
	mem.stack = append(mem.stack, root)
	s.Stats.Anchors++
	return nil
}

// attach registers the anchor with every processor it covers, keeping
// per-processor anchor lists sorted lowest level first.
func (s *Scheduler) attach(a *anchor) {
	s.allAnchors = append(s.allAnchors, a)
	for _, cl := range a.clusters {
		lo, hi := s.procRange(a.level-1, cl)
		for p := lo; p < hi; p++ {
			list := append(s.anchorsByProc[p], a)
			sort.SliceStable(list, func(i, j int) bool { return list[i].level < list[j].level })
			s.anchorsByProc[p] = list
		}
	}
}

// Pick searches the processor's anchors from the lowest level upward.
func (s *Scheduler) Pick(proc int) *core.Node {
	list := s.anchorsByProc[proc]
	// Lazily drop completed anchors.
	kept := list[:0]
	for _, a := range list {
		if !a.done {
			kept = append(kept, a)
		}
	}
	s.anchorsByProc[proc] = kept

	for _, a := range kept {
		if leaf := s.workFrom(a); leaf != nil {
			return leaf
		}
	}
	return nil
}

// workFrom pops items from the anchor's stack until it can hand the
// calling processor a strand, anchoring or unrolling tasks on the way.
func (s *Scheduler) workFrom(a *anchor) *core.Node {
	for len(a.stack) > 0 {
		t := a.stack[len(a.stack)-1]
		a.stack = a.stack[:len(a.stack)-1]

		k := s.maximalLevel(t.Size())
		// A task popped from its own anchor is executed or unrolled here;
		// only tasks still riding a coarser anchor get (re-)anchored.
		if k < a.level && a.task != t {
			// Anchor as low as possible; a task may "skip levels" upward
			// when lower caches are full (the paper's skip-level case).
			placed := false
			for level := k; level < a.level && !placed; level++ {
				placed = s.tryAnchor(t, a, level)
			}
			if placed {
				continue
			}
			// No space anywhere suitable: fall back to guarantee progress.
			if t.IsLeaf() {
				s.Stats.FallbackRuns++
				return t
			}
			s.Stats.FallbackUnrolls++
			s.unroll(t, a)
			continue
		}
		if t.IsLeaf() {
			return t
		}
		s.unroll(t, a)
	}
	return nil
}

// tryAnchor anchors t at some level-k cache under a's allocation.
func (s *Scheduler) tryAnchor(t *core.Node, a *anchor, k int) bool {
	size := t.Size()
	budget := int64(s.cfg.Sigma * float64(s.cacheSize(k)))
	bestCache := -1
	bestUsed := int64(math.MaxInt64)
	for _, cl := range a.clusters {
		cLo, cHi := s.unitsUnder(a.level-1, cl, k)
		for c := cLo; c < cHi; c++ {
			used := s.cacheUsed[k-1][c]
			if used+size <= budget && used < bestUsed {
				bestCache, bestUsed = c, used
			}
		}
	}
	if bestCache < 0 {
		return false
	}
	b := &anchor{task: t, level: k, cacheIdx: bestCache}
	// Allocate the g_k(S) least-loaded child units of the chosen cache.
	g := s.allocation(k, size)
	chLo, chHi := s.unitsUnder(k, bestCache, k-1)
	type load struct{ idx, load int }
	candidates := make([]load, 0, chHi-chLo)
	for c := chLo; c < chHi; c++ {
		candidates = append(candidates, load{c, s.clusterLoad[k-1][c]})
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].load != candidates[j].load {
			return candidates[i].load < candidates[j].load
		}
		return candidates[i].idx < candidates[j].idx
	})
	for i := 0; i < g; i++ {
		b.clusters = append(b.clusters, candidates[i].idx)
		s.clusterLoad[k-1][candidates[i].idx]++
	}
	s.cacheUsed[k-1][bestCache] += size
	s.progress++
	s.status[t.ID] = anchored
	b.stack = append(b.stack, t)
	s.homeAnchor[t.ID] = b
	s.attach(b)
	s.Stats.Anchors++
	return true
}

// unroll exposes t's children under the anchor, implementing the
// readiness semantics of Figure 12. Anchorable units (tasks maximal below
// the anchor's level, and strands) are gated on full readiness: every
// dataflow arrow into their subtree must be satisfied before they queue.
// Glue (tasks still maximal at or above the anchor's level) unrolls
// eagerly so that independent units deep in the tree surface without
// waiting for their siblings — unless an arrow aims exactly at the glue
// node, which gates the whole unrolling. Children are pushed in reverse
// so the leftmost pops first (depth-first order).
func (s *Scheduler) unroll(t *core.Node, a *anchor) {
	s.progress++
	for i := len(t.Children) - 1; i >= 0; i-- {
		c := t.Children[i]
		isUnit := c.IsLeaf() || s.maximalLevel(c.Size()) < a.level
		if isUnit {
			if s.extIn[c.ID] == 0 {
				s.status[c.ID] = queued
				a.stack = append(a.stack, c)
			} else {
				s.status[c.ID] = pendingUnit
				s.homeAnchor[c.ID] = a
			}
			continue
		}
		if s.gateExact[c.ID] == 0 {
			s.status[c.ID] = queued
			a.stack = append(a.stack, c)
		} else {
			s.status[c.ID] = pendingGlue
			s.homeAnchor[c.ID] = a
		}
	}
}

// Done propagates completion: subtree completions satisfy outgoing
// arrows, release anchors, and enqueue newly-ready pending tasks.
func (s *Scheduler) Done(proc int, leaf *core.Node) {
	s.drain = s.ctx.Tracker.TakeReadyIDs(s.drain[:0]) // SB uses its own readiness bookkeeping
	for t := leaf; t != nil; t = t.Parent {
		s.leavesLeft[t.ID]--
		if s.leavesLeft[t.ID] != 0 {
			continue
		}
		s.status[t.ID] = finished
		if a := s.homeAnchor[t.ID]; a != nil && a.task == t && a.level <= s.H && !a.done {
			s.release(a)
		}
		for _, sink := range s.outArrows[t.ID] {
			s.gateExact[sink.ID]--
			if s.gateExact[sink.ID] == 0 && s.status[sink.ID] == pendingGlue {
				s.status[sink.ID] = queued
				s.progress++
				s.homeAnchor[sink.ID].stack = append(s.homeAnchor[sink.ID].stack, sink)
			}
			for anc := sink; anc != nil && !anc.Contains(t); anc = anc.Parent {
				s.extIn[anc.ID]--
				if s.extIn[anc.ID] == 0 && s.status[anc.ID] == pendingUnit {
					s.status[anc.ID] = queued
					s.progress++
					s.homeAnchor[anc.ID].stack = append(s.homeAnchor[anc.ID].stack, anc)
				}
			}
		}
	}
}

func (s *Scheduler) release(a *anchor) {
	a.done = true
	s.cacheUsed[a.level-1][a.cacheIdx] -= a.task.Size()
	for _, cl := range a.clusters {
		s.clusterLoad[a.level-1][cl]--
	}
}
