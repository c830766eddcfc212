package exec

// Locality-aware scheduling for the real engine: the online analogue of
// the space-bounded scheduler the simulator runs (internal/sched/
// spacebound), adapted to a live work-stealing pool.
//
// A Topology groups the engine's workers into cache domains from a
// pmh.Spec — worker w stands for processor w of the spec, so the level-k
// caches partition the pool into CacheCount(k−1) groups of equal size.
// Three mechanisms hang off that grouping:
//
//   - Nearest-first victim selection: an idle worker steals from
//     same-domain siblings first (their deques hold strands whose data is
//     already in the shared cache), widening one cache level at a time,
//     and only then sweeps the rest of the pool.
//
//   - Anchoring: each compiled graph gets a static anchor plan — the
//     outermost tasks whose footprint fits a cache level's anchoring
//     threshold (⌊σ·M⌋/anchorGrain), the online analogue of the tasks
//     the simulator's space-bounded scheduler anchors. At run time the
//     first worker to enable one of an anchor task's strands claims a
//     concrete domain for it (preferring its own), σ-bounded by an
//     engine-wide budget per cache; from then on the task's strands are
//     routed to that domain. When no domain has budget, the task falls
//     back to plain work stealing.
//
//   - Per-domain mailboxes: a worker outside an anchor's domain hands the
//     enabled strand over instead of keeping it. Domain members poll
//     their mailboxes (lowest level first) before stealing; everyone else
//     only takes from foreign mailboxes as a last resort before parking,
//     so anchoring is a strong preference, never a source of idleness —
//     work conservation is preserved and the schedule stays a legal
//     execution of the DAG (bit-identical outputs, see difftest).
//
// Deviations from the paper's §4 machinery, mirroring the simulator's
// documented ones (measured rationale for each in DESIGN.md): no
// cache-fraction reservations and no g_k(S) subcluster allocation — a
// domain is claimed whole, boundedness comes from the σ·M budget alone,
// coexistence from the anchorGrain threshold, progress from the
// fallback-to-flat path; handoffs shed only surplus and wake no one;
// and tasks whose strands carry no bodies anchor nothing.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/pmh"
	"github.com/ndflow/ndflow/internal/telemetry"
)

// Topology is the steal topology of a locality-aware engine: the worker→
// domain maps, victim tiers, mailboxes and σ-budgets derived from a
// machine spec. One Topology belongs to one Engine; budgets are shared
// by every run in flight on it, which is what bounds the total anchored
// footprint per cache.
type Topology struct {
	spec    pmh.Spec
	sigma   float64
	workers int
	levels  int // H: number of cache levels

	span     []int       // per level (0-based): workers per domain
	domainOf [][]int32   // [level][worker] → domain index
	budget   []int64     // per level: ⌊σ·M⌋ words
	tiers    [][][]int   // [worker]: victim tiers, nearest first, exhaustive
	order    [][][]int32 // [level][worker]: domain claim order, nearest first

	mail [][]*mailbox // [level][domain]
	used [][]atomic.Int64
	// mailPending counts words across all mailboxes, so the acquire path
	// skips every mailbox poll with one atomic load while nothing is
	// posted — the common state of graphs with few or no anchors.
	mailPending atomic.Int64

	mu    sync.Mutex
	plans map[*core.ExecGraph]*locPlan

	// met holds the policy counters (claims, fallbacks, posts). A
	// free-standing topology gets a private set at construction so the
	// claim protocol can be driven (and metered) without an engine; when
	// an engine adopts the topology (newReadyQueue) it re-points met at
	// the engine's set, making Engine.Metrics the one source of truth.
	met *metricsSet
	// eng back-links the owning engine once adopted: anchor claim/release
	// trace events ride its tracer. nil on a free-standing topology,
	// which never traces.
	eng *Engine
}

// NewTopology builds the steal topology for a pool of the given size
// from the machine spec (pmh.DefaultSpec(workers) when spec is the zero
// value). The spec must validate and its processor count must equal the
// worker count — one worker per simulated processor — otherwise the
// grouping would mis-map workers to caches, so mismatches are rejected.
// sigma is the anchoring dilation; values outside (0,1) default to the
// paper's 1/3.
func NewTopology(spec pmh.Spec, workers int, sigma float64) (*Topology, error) {
	if len(spec.Caches) == 0 {
		spec = pmh.DefaultSpec(workers)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = spec.Processors()
	}
	if p := spec.Processors(); p != workers {
		return nil, fmt.Errorf("exec: topology spec has %d processors for %d workers; group sizes would not divide evenly", p, workers)
	}
	if sigma <= 0 || sigma >= 1 {
		sigma = 1.0 / 3
	}
	t := &Topology{
		spec:    spec,
		sigma:   sigma,
		workers: workers,
		levels:  spec.Levels(),
		plans:   make(map[*core.ExecGraph]*locPlan),
		met:     newMetricsSet(workers),
	}
	t.span = make([]int, t.levels)
	t.domainOf = make([][]int32, t.levels)
	t.budget = make([]int64, t.levels)
	t.mail = make([][]*mailbox, t.levels)
	t.used = make([][]atomic.Int64, t.levels)
	t.order = make([][][]int32, t.levels)
	for k := 0; k < t.levels; k++ {
		domains := spec.CacheCount(k)
		t.span[k] = workers / domains
		t.budget[k] = int64(sigma * float64(spec.Caches[k].Size))
		t.domainOf[k] = make([]int32, workers)
		for w := 0; w < workers; w++ {
			t.domainOf[k][w] = int32(w / t.span[k])
		}
		t.mail[k] = make([]*mailbox, domains)
		for d := range t.mail[k] {
			t.mail[k][d] = &mailbox{}
		}
		t.used[k] = make([]atomic.Int64, domains)
	}
	// Claim orders reference the maps of every level, so they are built
	// in a second pass.
	for k := 0; k < t.levels; k++ {
		domains := spec.CacheCount(k)
		t.order[k] = make([][]int32, workers)
		for w := 0; w < workers; w++ {
			t.order[k][w] = t.claimOrder(k, w, domains)
		}
	}
	t.tiers = make([][][]int, workers)
	for w := 0; w < workers; w++ {
		t.tiers[w] = t.victimTiers(w)
	}
	return t, nil
}

// claimOrder returns the level-k domains sorted by distance from the
// worker: its own domain first, then the ones sharing the next cache up,
// widening outward — so a task is anchored as close as possible to the
// worker that produced its inputs.
func (t *Topology) claimOrder(k, w, domains int) []int32 {
	own := int(t.domainOf[k][w])
	order := make([]int32, 0, domains)
	seen := make([]bool, domains)
	add := func(d int) {
		if !seen[d] {
			seen[d] = true
			order = append(order, int32(d))
		}
	}
	add(own)
	// Walk up the hierarchy: at each enclosing level j > k, append the
	// level-k domains under the worker's level-j cache.
	for j := k + 1; j < t.levels; j++ {
		kPerJ := t.span[j] / t.span[k]
		lo := int(t.domainOf[j][w]) * kPerJ
		for d := lo; d < lo+kPerJ && d < domains; d++ {
			add(d)
		}
	}
	for d := 0; d < domains; d++ {
		add(d)
	}
	return order
}

// victimTiers returns the worker's steal order as tiers of victims:
// same-L1 siblings, then workers added by each wider cache level, then
// everyone remaining. Tiers are exhaustive (the union is all other
// workers), so a sweep over them preserves the engine's "no available
// task missed" parking guarantee.
func (t *Topology) victimTiers(w int) [][]int {
	var tiers [][]int
	seen := make([]bool, t.workers)
	seen[w] = true
	for k := 0; k < t.levels; k++ {
		dom := int(t.domainOf[k][w])
		lo, hi := dom*t.span[k], (dom+1)*t.span[k]
		var tier []int
		for v := lo; v < hi; v++ {
			if !seen[v] {
				seen[v] = true
				tier = append(tier, v)
			}
		}
		if len(tier) > 0 {
			tiers = append(tiers, tier)
		}
	}
	var rest []int
	for v := 0; v < t.workers; v++ {
		if !seen[v] {
			rest = append(rest, v)
		}
	}
	if len(rest) > 0 {
		tiers = append(tiers, rest)
	}
	return tiers
}

// Workers returns the pool size the topology was built for.
func (t *Topology) Workers() int { return t.workers }

// anchorGrain divides the σ-budget into the per-task anchoring
// threshold: a task anchors at level k when it is at most budget/grain,
// so about grain anchored tasks coexist per domain. The paper's g_k(S)
// allocation achieves the same coexistence by giving each task a
// fraction of the subcluster; a whole-domain claim needs the fraction on
// the task side instead, or pipelined programs (whose anchor tasks stay
// open for most of the run) would saturate each domain with a single
// claim and demote everything else to flat stealing.
const anchorGrain = 4

// fitLevel returns the lowest 0-based cache level whose per-task
// anchoring threshold holds size, or -1 when none does.
func (t *Topology) fitLevel(size int64) int {
	for k := 0; k < t.levels; k++ {
		if size <= t.budget[k]/anchorGrain {
			return k
		}
	}
	return -1
}

// stealNear probes victims tier by tier, nearest first, randomizing the
// start within each tier. Every victim is visited (lost races re-probe),
// so a failed sweep means no task was available at the time. On success
// the victim's index is returned alongside the task, for the tracer's
// steal flow arrows.
func (t *Topology) stealNear(deques []*wsDeque, self int, rng *uint64) (int64, int, bool) {
	for _, tier := range t.tiers[self] {
		n := len(tier)
		*rng ^= *rng << 13
		*rng ^= *rng >> 7
		*rng ^= *rng << 17
		off := int(*rng % uint64(n))
		for i := 0; i < n; i++ {
			victim := tier[(off+i)%n]
			d := deques[victim]
			for {
				v, ok, retry := d.steal()
				if ok {
					return v, victim, true
				}
				if !retry {
					break
				}
			}
		}
	}
	return 0, 0, false
}

// --- anchor plans

// locPlan is the static half of anchoring for one compiled graph on one
// topology: per strand, the anchor task it belongs to. Anchor tasks are
// the outermost spawn tree tasks whose footprint σ-fits a cache level
// whose domains are a proper subset of the pool — the tasks the
// simulator's space-bounded scheduler would anchor (tasks fitting only
// a cache shared by every worker gain nothing from anchoring and stay
// flat, as do zero-footprint tasks).
type locPlan struct {
	anchorOf []int32 // per strand: index into tasks, or -1 (flat)
	tasks    []locTask
}

type locTask struct {
	level   int32 // 0-based cache level the task σ-fits
	size    int64
	strands int32
}

func (t *Topology) plan(eg *core.ExecGraph) *locPlan {
	t.mu.Lock()
	p := t.plans[eg]
	t.mu.Unlock()
	if p != nil {
		return p
	}
	p = t.buildPlan(eg)
	t.mu.Lock()
	if prev := t.plans[eg]; prev != nil {
		p = prev // another submitter won the build race
	} else {
		t.plans[eg] = p
	}
	t.mu.Unlock()
	return p
}

func (t *Topology) buildPlan(eg *core.ExecGraph) *locPlan {
	p := &locPlan{anchorOf: make([]int32, eg.NumStrands())}
	for i := range p.anchorOf {
		p.anchorOf[i] = -1
	}
	prog := eg.Program()
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		size := eg.TaskSize(int32(n.ID))
		if size > 0 {
			if k := t.fitLevel(size); k >= 0 && t.span[k] < t.workers {
				lo, hi := n.LeafRange()
				if !anyLiveBody(eg, lo, hi) {
					// A footprint no body will touch generates no cache
					// traffic: anchoring buys nothing, so scheduling-only
					// graphs (stripped closures, replay benchmarks) run
					// the flat path with zero per-strand bookkeeping. The
					// plan snapshots liveness at first submission.
					return
				}
				id := int32(len(p.tasks))
				p.tasks = append(p.tasks, locTask{level: int32(k), size: size, strands: int32(hi - lo)})
				for s := lo; s < hi; s++ {
					p.anchorOf[s] = id
				}
				return
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(prog.Root)
	return p
}

func anyLiveBody(eg *core.ExecGraph, lo, hi int) bool {
	for s := lo; s < hi; s++ {
		if eg.Strand(int32(s)).Run != nil {
			return true
		}
	}
	return false
}

// locState is the per-run half of anchoring: which domain each anchor
// task is bound to and how many of its strands remain. It is pooled with
// the run's Instance and rewound between generations by reset.
type locState struct {
	topo   *Topology
	plan   *locPlan
	domain []int32 // atomic: domUnclaimed, domFlat, or a domain index
	left   []int32 // atomic: strands not yet completed
}

const (
	domUnclaimed int32 = -1
	domFlat      int32 = -2 // no budget anywhere: plain stealing
)

// newState returns run state for the graph, or nil when the plan anchors
// nothing (the run then skips the locality paths entirely).
func (t *Topology) newState(eg *core.ExecGraph) *locState {
	p := t.plan(eg)
	if len(p.tasks) == 0 {
		return nil
	}
	ls := &locState{
		topo:   t,
		plan:   p,
		domain: make([]int32, len(p.tasks)),
		left:   make([]int32, len(p.tasks)),
	}
	ls.reset()
	return ls
}

// reset rewinds the state for the next generation. Like the tracker's
// Reset it must only run once the previous run has fully completed (every
// claimed budget is released by then: the release rides the last strand's
// completion).
func (ls *locState) reset() {
	for i := range ls.domain {
		atomic.StoreInt32(&ls.domain[i], domUnclaimed)
		atomic.StoreInt32(&ls.left[i], ls.plan.tasks[i].strands)
	}
}

// resolve returns the task's domain, claiming one on first contact: the
// claiming worker tries the σ-budgets of the task's level nearest-first
// from its own position and binds the first domain with room; with no
// room anywhere the task is demoted to flat stealing. Racing claimers
// are reconciled by the CAS — the loser returns its budget.
func (ls *locState) resolve(a int32, self int) int32 {
	if d := atomic.LoadInt32(&ls.domain[a]); d != domUnclaimed {
		return d
	}
	task := ls.plan.tasks[a]
	k := task.level
	for _, dom := range ls.topo.order[k][self] {
		if ls.topo.used[k][dom].Add(task.size) <= ls.topo.budget[k] {
			if atomic.CompareAndSwapInt32(&ls.domain[a], domUnclaimed, dom) {
				ls.topo.met.claims.Inc(self)
				if eng := ls.topo.eng; eng != nil {
					if tr := eng.tracer; tr != nil {
						tr.Record(self, telemetry.EvAnchorClaim, -1, a, int64(dom))
					}
				}
				return dom
			}
			ls.topo.used[k][dom].Add(-task.size)
			return atomic.LoadInt32(&ls.domain[a])
		}
		ls.topo.used[k][dom].Add(-task.size)
	}
	if atomic.CompareAndSwapInt32(&ls.domain[a], domUnclaimed, domFlat) {
		ls.topo.met.fallbacks.Inc(self)
	}
	return atomic.LoadInt32(&ls.domain[a])
}

// complete retires one strand of its anchor task; the last strand
// releases the claimed σ-budget. A claim cannot race this release: claims
// happen while enabling a strand, whose own completion is still
// outstanding, so left ≥ 1 throughout any claim.
func (ls *locState) complete(id int32) {
	a := ls.plan.anchorOf[id]
	if a < 0 {
		return
	}
	if atomic.AddInt32(&ls.left[a], -1) != 0 {
		return
	}
	if dom := atomic.LoadInt32(&ls.domain[a]); dom >= 0 {
		task := ls.plan.tasks[a]
		ls.topo.used[task.level][dom].Add(-task.size)
		if eng := ls.topo.eng; eng != nil {
			// Engine-level event: the anchor's last strand may retire on
			// any worker, and the release concerns the domain, not a run
			// slot.
			eng.TraceEvent(telemetry.EvAnchorRelease, -1, a, int64(dom))
		}
	}
}

// --- mailboxes

// mailbox is a small FIFO handoff queue for one domain: outsiders push
// strands anchored there, domain members (and, before parking, anyone)
// take them. Cross-domain handoffs are rare — anchor-task boundaries,
// not per strand — so a mutex is cheaper here than another lock-free
// structure would be worth. The pending counter lets the poll paths skip
// empty mailboxes with one atomic load, no lock.
type mailbox struct {
	pending atomic.Int32
	mu      sync.Mutex
	q       []int64
	head    int
}

// push appends w.
//
//ndlint:allowblock cross-domain handoffs happen at anchor-task boundaries, not per strand; the mailbox mutex is the cheap choice at that rate and the pending mirror keeps empty polls lock-free
func (m *mailbox) push(w int64) {
	m.mu.Lock()
	m.q = append(m.q, w)
	m.pending.Add(1)
	m.mu.Unlock()
}

// take pops up to max words FIFO into dst, compacting the dead prefix.
//
//ndlint:allowblock the pending mirror rejects empty mailboxes before the lock; a contended take means real cross-domain work arrived, which is worth the mutex
func (m *mailbox) take(max int, dst []int64) []int64 {
	if m.pending.Load() == 0 {
		return dst
	}
	m.mu.Lock()
	n := len(m.q) - m.head
	if n == 0 {
		m.mu.Unlock()
		return dst
	}
	if n > max {
		n = max
	}
	dst = append(dst, m.q[m.head:m.head+n]...)
	m.head += n
	m.pending.Add(int32(-n))
	switch h := m.head; {
	case h == len(m.q):
		m.q = m.q[:0]
		m.head = 0
	case h >= 32 && 2*h >= len(m.q):
		m.q = m.q[:copy(m.q, m.q[h:])]
		m.head = 0
	}
	m.mu.Unlock()
	return dst
}

// --- engine integration

// localSched is PolicyLocality, domain mailboxes: strands of an anchored
// run route by the topology — the enabling worker's deque when it sits in
// the anchor's domain, that domain's mailbox otherwise — and idle workers
// sweep nearest-first. Unanchored runs (and the injector seeding) keep
// the embedded FIFO discipline exactly.
type localSched struct {
	fifoSched
	topo *Topology
	mail [][]int64 // per worker slot: mailbox-poll scratch, owned with the slot
}

// seed attaches anchoring state on first contact with this topology
// (newState returns nil when the plan anchors nothing; pooled instances
// keep theirs, a caller-owned instance migrating between engines is
// re-bound). One pointer compare in the steady state.
func (s *localSched) seed(inst *Instance, slot int32) {
	if inst.locTopo != s.topo {
		inst.loc = s.topo.newState(inst.eg)
		inst.locTopo = s.topo
	}
	s.fifoSched.seed(inst, slot)
}

// publish routes an anchored run's strands by the topology; a run whose
// plan anchors nothing takes the FIFO publish.
//
//ndlint:hotpath
func (s *localSched) publish(w *Worker, inst *Instance, slot, id int32, ready []int32) int64 {
	if ls := inst.loc; ls != nil {
		return s.routeReady(w, ls, slot, id, ready)
	}
	return s.fifoSched.publish(w, inst, slot, id, ready)
}

// sweep is hierarchical: the worker's own domain mailboxes (lowest level
// first), then a nearest-first steal walk, then every other domain's
// mailbox — anchored work is preferred by its domain but never strands
// while anyone is idle.
//
//ndlint:hotpath
func (s *localSched) sweep(w *Worker) (int64, bool) {
	if t, ok := s.pollMail(w, true); ok {
		return t, true
	}
	if t, victim, ok := s.topo.stealNear(s.e.deques, w.self, &w.rng); ok {
		s.e.noteSteal(w.self, t, victim)
		return t, true
	}
	if t, ok := s.pollMail(w, false); ok {
		s.e.noteSteal(w.self, t, -1)
		return t, true
	}
	return 0, false
}

// routeReady distributes the strands a completion enabled. Flat strands
// (and anchored strands whose domain includes this worker) chain or go
// on the local deque exactly like the flat engine; strands anchored
// elsewhere are posted to that domain's mailbox — but only when this
// worker keeps work of its own. A completion that enabled nothing but
// foreign-anchored work keeps one such strand and runs it in place:
// handing away the last strand would idle a worker (and, in the common
// pipeline shape, bounce the whole frontier through park/wake cycles),
// so locality yields to progress exactly like the simulator's fallback
// runs. Local pushes wake sleepers in one batched call per completion.
func (s *localSched) routeReady(w *Worker, ls *locState, slot, cur int32, ready []int32) int64 {
	e, t := s.e, s.topo
	d := e.deques[w.self]
	next := int64(-1)
	held := int64(-1) // one foreign-anchored strand held back while next is open
	wakes := 0
	posted := 0
	post := func(word int64) {
		id := int32(uint32(word))
		a := ls.plan.anchorOf[id]
		k := ls.plan.tasks[a].level
		// Posts are demand-driven, not wake-driven: a posted strand is by
		// construction surplus (this worker keeps a chained strand and
		// deque depth), so no sleeper is signalled for it — the domain's
		// workers collect it the next time they run dry, and any worker
		// sweeps every mailbox before it would park, so a posted strand
		// is delayed at most until the poster itself next runs dry, never
		// stranded. Waking a parked worker per handoff measurably drowns
		// the locality it buys in park/wake churn.
		t.mail[k][atomic.LoadInt32(&ls.domain[a])].push(word)
		t.mailPending.Add(1)
		posted++
	}
	// Shed only surplus: cross-domain handoffs happen only while this
	// worker provably keeps other work (a chained strand plus local deque
	// depth). A narrow pipeline therefore never bounces its frontier
	// through mailboxes — the enabling worker carries it, wrong domain or
	// not, which is the online analogue of the simulator's fallback runs —
	// while wide fan-outs still shed their excess to the anchor domains.
	surplus := d.size() > 0
	// Chain same-task first: of the strands this worker keeps, prefer one
	// from the anchor task it just executed — that task's footprint is the
	// data sitting in the local cache right now.
	curAnchor := ls.plan.anchorOf[cur]
	nextSame := false
	for _, rid := range ready {
		word := packTask(slot, rid)
		a := ls.plan.anchorOf[rid]
		if a >= 0 {
			if dom := ls.resolve(a, w.self); dom >= 0 {
				k := ls.plan.tasks[a].level
				if t.domainOf[k][w.self] != dom {
					if held < 0 && (next < 0 || !surplus) {
						held = word
						continue
					}
					post(word)
					continue
				}
			}
		}
		switch {
		case next < 0:
			next = word
			nextSame = a >= 0 && a == curAnchor
		case !nextSame && a >= 0 && a == curAnchor:
			d.push(next) // displace the colder candidate
			next = word
			nextSame = true
			wakes++
		default:
			d.push(word)
			wakes++
		}
	}
	if held >= 0 {
		if next < 0 {
			next = held // starved: run the foreign strand here anyway
		} else if surplus {
			post(held)
		} else {
			d.push(held) // keep the frontier local; thieves can still take it
			wakes++
		}
	}
	if posted > 0 {
		e.met.posts.Add(w.self, uint64(posted))
	}
	e.wakeFor(wakes)
	return next
}

// pollMail serves a worker from domain mailboxes. ownOnly polls the
// domains the worker belongs to, lowest level first, taking a small
// batch (one returned, the rest onto its deque); otherwise every mailbox
// is swept — the pre-parking pass that keeps anchored work from ever
// stranding while any worker is idle. With nothing posted anywhere the
// whole call is one atomic load.
func (s *localSched) pollMail(w *Worker, ownOnly bool) (int64, bool) {
	t := s.topo
	if t.mailPending.Load() == 0 {
		return 0, false
	}
	buf := &s.mail[w.self]
	for k := 0; k < t.levels; k++ {
		if ownOnly {
			*buf = t.mail[k][t.domainOf[k][w.self]].take(4, (*buf)[:0])
			if n := len(*buf); n > 0 {
				t.mailPending.Add(int64(-n))
				d := s.e.deques[w.self]
				for _, word := range (*buf)[1:] {
					d.push(word)
				}
				return (*buf)[0], true
			}
			continue
		}
		for _, box := range t.mail[k] {
			*buf = box.take(1, (*buf)[:0])
			if len(*buf) > 0 {
				t.mailPending.Add(-1)
				return (*buf)[0], true
			}
		}
	}
	return 0, false
}
