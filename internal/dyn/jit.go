package dyn

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/telemetry"
)

// Adaptive replay compilation. A recurring dynamic program pays the
// online runtime's discovery prices — frame wiring, gating, future
// resolution — on every run, even when it unfolds the exact same DAG
// each time. A Program handle closes that gap in three phases:
//
//  1. Observe. Every run fingerprints its unfolded DAG: each frame's
//     pedigree hash (core.PedigreeRoot/PedigreeChild — its position in
//     the spawn tree) is combined with a rolling hash of the structural
//     events its body performed (spawns with their argument and gate
//     width, Put/Get/Sync), and the per-frame digests are folded — in a
//     commutative sum, since completion order is nondeterministic — into
//     a per-run shape key as frames retire. The observation costs a few
//     arithmetic ops per structural call and nothing at all for
//     programs run without a Program handle.
//
//  2. Record. When Threshold consecutive runs produce the same key, the
//     next run also records: every spawn appends a strand entry (body
//     closure, parent) and every dependency observed at gates and
//     Put-wakes appends an edge, both by pedigree-stable strand index.
//     Shapes the compiled engine cannot express — a strand that parks
//     mid-body on Get, an explicit Sync, an edge from a future this
//     program did not resolve — veto the recording and the run completes
//     live as usual. A clean recording is compiled through the standard
//     core.BuildGraph → ExecGraph path: strands become graph strands,
//     spawn and dataflow edges become arrows. Recorded arrows cannot
//     form a cycle: every edge is justified by an event in the source
//     strand's body that occurred before the target strand started.
//
//  3. Replay. Later runs submit the compiled graph to the engine — wake
//     graph, pooled instances, zero discovery work. Each replayed strand
//     runs its recorded body under a replay-mode Context (Replaying()
//     true): structural calls schedule nothing and instead accumulate
//     the same verification hash the recording computed, which also
//     folds in body code pointers so a same-shaped program with
//     different code cannot silently replay. Any mismatch — hash
//     divergence at strand end, Get of a future the recording says
//     should be resolved, a Sync — marks the run diverged; remaining
//     strands turn into no-ops, and Run falls back to a full live
//     execution. MaxDivergences *consecutive* diverged runs invalidate
//     the recording and the program re-observes from scratch (a clean
//     replay resets the count).
//
// The fallback leans on the replayability contract: a Program's root
// task must tolerate re-execution from the top (as difftest's idempotent
// builders do), because a diverged replay may have run a prefix of the
// recorded bodies before diverging. Programs whose side effects are not
// idempotent should not be wrapped in a Program handle.

// errReplayDiverged is the panic sentinel replay-mode structural calls
// throw when execution leaves the recorded shape. The strand wrapper
// installed by materialize recovers it (by identity) and marks the run
// diverged.
var errReplayDiverged = errors.New("dyn: replay diverged from recorded shape")

// JITConfig tunes a Program's adaptive replay compilation. Zero values
// select the defaults.
type JITConfig struct {
	// Threshold is the number of consecutive identical-shape observed
	// runs required before the next run records. Default 2 (so the 3rd
	// identical run records and the 4th replays).
	Threshold int
	// MaxDivergences invalidates the compiled shape after this many
	// consecutive diverged replays (a successful replay resets the
	// count). Default 2.
	MaxDivergences int
	// MaxBindings caps the compiled bindings (graph + replay state) that
	// may be checked out by concurrent warm runs; excess runs execute
	// live. Default 4.
	MaxBindings int
	// MaxRecordVetoes disables compilation for the program after this
	// many abandoned recordings (shapes the compiled engine cannot
	// express, or timing-dependent suspensions). Default 3.
	MaxRecordVetoes int
	// MaxStrands vetoes recordings that unfold more strands than this,
	// bounding compiled-graph memory. Default 1 << 20.
	MaxStrands int
}

func (cfg JITConfig) withDefaults() JITConfig {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 2
	}
	if cfg.MaxDivergences <= 0 {
		cfg.MaxDivergences = 2
	}
	if cfg.MaxBindings <= 0 {
		cfg.MaxBindings = 4
	}
	if cfg.MaxRecordVetoes <= 0 {
		cfg.MaxRecordVetoes = 3
	}
	if cfg.MaxStrands <= 0 {
		cfg.MaxStrands = 1 << 20
	}
	return cfg
}

// ProgramStats is a snapshot of a Program's adaptive-compilation
// counters.
type ProgramStats struct {
	Runs           uint64 // Run calls completed
	Hits           uint64 // runs served entirely by the compiled engine
	Divergences    uint64 // replays that diverged and fell back to live
	Records        uint64 // recording runs started
	Vetoes         uint64 // recordings abandoned or failed to compile
	Invalidations  uint64 // compiled shapes dropped after divergences
	CapacityMisses uint64 // warm-eligible runs executed live: bindings busy
}

// Program is a reusable dynamic program: a root Task plus the adaptive
// replay compilation state that lets recurring shapes run on the
// compiled engine. The zero value is not usable; construct with
// NewProgram. A Program is safe for concurrent Run calls, with one rule
// about what its tasks capture: a replay executes the closures the
// recording run created, so whatever those captured is shared by every
// replay. The one capture the runtime can see is a Future a recorded
// strand resolves — each replay stores to that same cell — and a recording
// with such a Put is exclusive: one replay at a time, further concurrent
// runs execute live on futures of their own. Any other captured state is
// the caller's to synchronize, as for concurrent submissions of one
// compiled graph with live bodies.
type Program struct {
	root Task
	cfg  JITConfig

	mu          sync.Mutex
	shape       uint64 // last observed shape key
	streak      int    // consecutive runs with that key
	recording   bool   // a recording run is in flight
	noJIT       bool   // compilation permanently disabled
	vetoes      int
	divergences int
	rec         *recording
	free        []*binding // idle compiled bindings
	made        int        // bindings materialized for rec
	stats       ProgramStats
}

// NewProgram wraps root for adaptive replay compilation. The optional
// cfg tunes thresholds; zero fields take defaults.
func NewProgram(root Task, cfg ...JITConfig) *Program {
	p := &Program{root: root}
	if len(cfg) > 0 {
		p.cfg = cfg[0]
	}
	p.cfg = p.cfg.withDefaults()
	return p
}

// Stats returns a snapshot of the program's counters.
func (p *Program) Stats() ProgramStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Compiled reports whether the program currently holds a compiled
// recording (warm runs will attempt replay).
func (p *Program) Compiled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rec != nil
}

// Run executes the program to completion on the engine: through the
// compiled engine when a recorded shape is installed and a binding is
// free, live otherwise. A diverged replay transparently falls back to a
// full live run (see the package notes on replayability).
func (p *Program) Run(e *exec.Engine) error {
	if b := p.takeBinding(e); b != nil {
		meterJIT(e, telemetry.MJITReplays)
		b.diverged.Store(false)
		r, err := e.Submit(b.graph)
		if err == nil {
			r.TraceMark(telemetry.EvJITReplay, 0)
			err = r.Wait()
		}
		div := err == nil && b.diverged.Load()
		p.putBinding(b)
		if err != nil {
			return err
		}
		if !div {
			meterJIT(e, telemetry.MJITHits)
			p.mu.Lock()
			p.stats.Runs++
			p.stats.Hits++
			// A clean replay proves the recording still matches the
			// program: MaxDivergences bounds *consecutive* diverged runs,
			// so recovery resets the invalidation counter (the cumulative
			// count stays in stats.Divergences).
			p.divergences = 0
			p.mu.Unlock()
			return nil
		}
		meterJIT(e, telemetry.MJITDivergences)
		e.TraceEvent(telemetry.EvJITDiverge, -1, -1, 0)
		p.divergedRun()
		// Fall through to a live run: replayed prefixes are discarded by
		// recomputation under the replayability contract.
	}
	er, err := submitRun(e, p, p.root)
	if err != nil {
		return err
	}
	if err := er.Wait(); err != nil {
		return err
	}
	p.mu.Lock()
	p.stats.Runs++
	p.mu.Unlock()
	return nil
}

// takeBinding checks out an idle compiled binding, materializing a new
// one when the recording allows more, or nil when the program must run
// live (no recording installed, or all bindings busy). e meters veto
// outcomes on the engine's registry.
func (p *Program) takeBinding(e *exec.Engine) *binding {
	p.mu.Lock()
	rec := p.rec
	if rec == nil {
		p.mu.Unlock()
		return nil
	}
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b
	}
	if p.made >= p.cfg.MaxBindings || (rec.exclusive && p.made >= 1) {
		p.stats.CapacityMisses++
		p.mu.Unlock()
		return nil
	}
	p.made++
	p.mu.Unlock()
	b, err := materialize(rec)
	if err != nil {
		// The first materialization happens at install time, so a
		// failure here is exotic (CSR overflow on a replica should match
		// the original); drop the slot and run live.
		p.mu.Lock()
		if p.rec == rec {
			p.made--
		}
		p.stats.Vetoes++
		p.mu.Unlock()
		meterJIT(e, telemetry.MJITVetoes)
		return nil
	}
	return b
}

// putBinding returns a checked-out binding, discarding it if the
// recording it was built for has been invalidated since.
func (p *Program) putBinding(b *binding) {
	p.mu.Lock()
	if p.rec == b.rec {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}

// divergedRun charges one divergence and invalidates the recording once
// the configured budget is spent.
func (p *Program) divergedRun() {
	p.mu.Lock()
	p.stats.Divergences++
	p.divergences++
	if p.divergences >= p.cfg.MaxDivergences {
		p.rec = nil
		p.free = nil
		p.made = 0
		p.shape, p.streak, p.divergences = 0, 0, 0
		p.stats.Invalidations++
	}
	p.mu.Unlock()
}

// armRecording decides whether the live run being submitted should
// record, claiming the program's single recording slot if so.
func (p *Program) armRecording() *recorder {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rec != nil || p.noJIT || p.recording || p.streak < p.cfg.Threshold {
		return nil
	}
	p.recording = true
	p.stats.Records++
	return &recorder{puts: make(map[*Future]int32), maxStrands: p.cfg.MaxStrands}
}

// abortSubmit unwinds armRecording when the engine rejected the run.
func (p *Program) abortSubmit(wasRecording bool) {
	if !wasRecording {
		return
	}
	p.mu.Lock()
	p.recording = false
	p.stats.Records--
	p.mu.Unlock()
}

// meterJIT bumps one of the engine-registry JIT counters; nil-safe so
// Program hooks exercised without an engine stay valid.
func meterJIT(e *exec.Engine, name string) {
	if e != nil {
		e.Metrics().Counter(name).IncShared()
	}
}

// runRetired is called by the run's Retire with the run's folded shape
// key (and its recorder, for recording runs). e is the engine the run
// executed on, for registry metering.
func (p *Program) runRetired(e *exec.Engine, key uint64, rec *recorder) {
	if rec != nil {
		p.finishRecording(e, rec, key)
		return
	}
	p.mu.Lock()
	if key == p.shape {
		p.streak++
	} else {
		p.shape, p.streak = key, 1
	}
	p.mu.Unlock()
}

// runFailed is called by the run's Discard when a program-owned run
// failed (panic, cancellation, watchdog). A failed recording run
// releases the recording slot and charges a veto — its half-captured
// binding must never be installed — and any failed run resets the shape
// streak: the failed run's key was never folded, so the streak no longer
// describes consecutive observations.
func (p *Program) runFailed(e *exec.Engine, wasRecording bool) {
	p.mu.Lock()
	if wasRecording {
		p.recording = false
		p.vetoLocked(e)
	}
	p.shape, p.streak = 0, 0
	p.mu.Unlock()
}

// vetoLocked charges one abandoned recording attempt.
func (p *Program) vetoLocked(e *exec.Engine) {
	p.stats.Vetoes++
	p.vetoes++
	if p.vetoes >= p.cfg.MaxRecordVetoes {
		p.noJIT = true
	}
	meterJIT(e, telemetry.MJITVetoes)
}

// finishRecording installs a clean recording (compiling its first
// binding) or charges a veto.
func (p *Program) finishRecording(e *exec.Engine, rec *recorder, key uint64) {
	p.mu.Lock()
	sameShape := key == p.shape
	p.mu.Unlock()
	var b *binding
	var r *recording
	var err error
	if !rec.failed.Load() && sameShape {
		r = &recording{strands: rec.strands, key: key, exclusive: len(rec.puts) > 0}
		b, err = materialize(r)
	}
	p.mu.Lock()
	p.recording = false
	switch {
	case rec.failed.Load() || !sameShape:
		// Inexpressible shape, or the shape drifted mid-streak.
		p.vetoLocked(e)
	case err != nil:
		// The recorded DAG does not compile (e.g. CSR capacity): this
		// shape will never compile, so stop trying.
		p.noJIT = true
		p.stats.Vetoes++
		meterJIT(e, telemetry.MJITVetoes)
	default:
		p.rec = r
		p.free = append(p.free[:0], b)
		p.made = 1
		p.divergences = 0
	}
	p.mu.Unlock()
}

// --- recording ---

// recStrand is one recorded strand: identity (index, parent), body, and
// the dependencies and verification hash captured during the recording
// run.
type recStrand struct {
	idx    int32
	parent int32 // recorded strand index, -1 for the root
	fn     Task
	xfn    func(*Context, int64)
	x      int64
	veh    uint64  // verification event hash at body end (set at frame retire)
	deps   []int32 // resolver strand indices (gates and Put-wakes)
}

// recorder accumulates one recording run's strand DAG. Strand creation
// and edge appends come from whichever workers run the program, so both
// go through one mutex; the recording run is a one-time cost.
type recorder struct {
	mu         sync.Mutex
	strands    []*recStrand
	puts       map[*Future]int32 // future → resolver strand index
	maxStrands int
	failed     atomic.Bool
}

func (rc *recorder) fail() { rc.failed.Store(true) }

// newStrand registers a spawned frame as recorded strand and returns its
// entry. Body identity (fn/xfn/x) is copied from the frame, so callers
// must have wired those fields first.
func (rc *recorder) newStrand(parent int32, fr *frame) *recStrand {
	rs := &recStrand{parent: parent, fn: fr.fn, xfn: fr.xfn, x: fr.x}
	rc.mu.Lock()
	if len(rc.strands) >= rc.maxStrands {
		rc.mu.Unlock()
		rc.fail()
		rs.idx = -1
		return rs
	}
	rs.idx = int32(len(rc.strands))
	rc.strands = append(rc.strands, rs)
	rc.mu.Unlock()
	return rs
}

// notePut records that strand idx resolved future f, so later waiters can
// be given a dependency edge on it.
func (rc *recorder) notePut(f *Future, idx int32) {
	rc.mu.Lock()
	rc.puts[f] = idx
	rc.mu.Unlock()
}

// dep records a dataflow edge: the strand that resolved f must precede
// strand to. A future this recording never saw resolved — an external or
// cross-run Put — has no recorded resolver, which vetoes the recording.
func (rc *recorder) dep(to *recStrand, f *Future) {
	rc.mu.Lock()
	from, ok := rc.puts[f]
	if ok && to.idx >= 0 {
		to.deps = append(to.deps, from)
	}
	rc.mu.Unlock()
	if !ok || to.idx < 0 {
		rc.fail()
	}
}

// recording is an installed, immutable recorded shape.
type recording struct {
	strands []*recStrand
	key     uint64
	// exclusive: a recorded strand resolves a future of the recording
	// run, which overlapping replays would all store to (see Program).
	exclusive bool
}

// binding is one compiled replica of a recording: a core.Graph whose
// strand closures replay the recorded bodies, plus the per-run
// divergence flag those closures report into. Each concurrent warm run
// needs its own binding because the closures must see their run's flag.
// A binding is checked out by at most one run at a time, so the replay
// Contexts live in one preallocated slab (handing a body a pointer into
// it costs nothing per strand; a per-call Context would escape to the
// heap on every one of them).
type binding struct {
	rec      *recording
	graph    *core.Graph
	slots    []repSlot
	diverged atomic.Bool
}

// repSlot packs everything one replayed strand touches — recorded body,
// spawn argument, expected verification hash, and the replay Context —
// into exactly one cache line. The wrapper's hot path then costs a
// single cold line per strand per run, where pointer-chasing into the
// recStrand heap objects plus a separate Context slab would cost two or
// three; and since each strand owns its line outright, workers never
// false-share hash-accumulator writes.
type repSlot struct {
	fn  Task
	xfn func(*Context, int64)
	x   int64
	veh uint64
	ctx Context
	_   [16]byte
}

// Compile-time line-size check: either constant underflows (failing the
// build) if Context or repSlot drift off the packed layout above.
const (
	_ = uint(16 - unsafe.Sizeof(Context{}))
	_ = uint(64 - unsafe.Sizeof(repSlot{}))
	_ = uint(unsafe.Sizeof(repSlot{}) - 64)
)

// materialize compiles a recording into a binding via the standard
// BuildGraph → ExecGraph path: one strand node per recorded strand, one
// arrow per spawn edge (parent before child: the spawn event is in the
// parent's body) and per recorded dependency.
func materialize(rec *recording) (*binding, error) {
	n := len(rec.strands)
	if n == 0 {
		return nil, fmt.Errorf("empty recording")
	}
	b := &binding{rec: rec, slots: make([]repSlot, n)}
	nodes := make([]*core.Node, n)
	for i, rs := range rec.strands {
		sl := &b.slots[i]
		sl.fn, sl.xfn, sl.x, sl.veh = rs.fn, rs.xfn, rs.x, rs.veh
		body := func() {
			if b.diverged.Load() {
				return
			}
			defer func() {
				if r := recover(); r != nil {
					if err, ok := r.(error); ok && err == errReplayDiverged {
						b.diverged.Store(true)
						return
					}
					panic(r)
				}
			}()
			c := &sl.ctx
			c.rh = 0
			if sl.fn != nil {
				sl.fn(c)
			} else {
				sl.xfn(c, sl.x)
			}
			if c.rh != sl.veh {
				b.diverged.Store(true)
			}
		}
		nodes[i] = core.NewStrand("r"+strconv.Itoa(i), 0, nil, nil, body)
	}
	// Join through a tree rather than one flat par: a single join relay
	// would be decremented by every strand completion in the run — one
	// contended cache line serializing all workers at the tail of the
	// wake path. Fan-in 64 keeps the tree two levels deep for any
	// recording under MaxStrands while spreading the join traffic.
	const joinFan = 64
	level := nodes
	for len(level) > 1 {
		next := make([]*core.Node, 0, (len(level)+joinFan-1)/joinFan)
		for lo := 0; lo < len(level); lo += joinFan {
			hi := lo + joinFan
			if hi > len(level) {
				hi = len(level)
			}
			if hi-lo == 1 {
				next = append(next, level[lo])
				continue
			}
			next = append(next, core.NewPar(level[lo:hi]...))
		}
		level = next
	}
	root := level[0]
	cp, err := core.NewProgram(root, nil)
	if err != nil {
		return nil, err
	}
	arrows := make([]core.Arrow, 0, 2*n)
	for i, rs := range rec.strands {
		if rs.parent >= 0 {
			arrows = append(arrows, core.Arrow{From: nodes[rs.parent], To: nodes[i]})
		}
		for _, d := range rs.deps {
			arrows = append(arrows, core.Arrow{From: nodes[d], To: nodes[i]})
		}
	}
	g, err := core.BuildGraph(cp, arrows)
	if err != nil {
		return nil, err
	}
	b.graph = g
	return b, nil
}

// --- shape hashing ---

// Structural event tags. Distinct arbitrary constants; spawn events are
// additionally salted with the spawn argument and gate width, and their
// verification variant with the body's code pointer.
const (
	opSpawn      uint64 = 0xa11ce<<20 | 1
	opSpawnAfter uint64 = 0xa11ce<<20 | 2
	opSpawnFor   uint64 = 0xa11ce<<20 | 3
	opSync       uint64 = 0xa11ce<<20 | 4
	opPut        uint64 = 0xa11ce<<20 | 5
	opGet        uint64 = 0xa11ce<<20 | 6
)

// smix is the splitmix64/murmur3 finalizer: a cheap bijective scrambler.
func smix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// mix2 folds one event into a rolling (order-sensitive) hash.
func mix2(h, v uint64) uint64 {
	return (h ^ smix(v)) * 0x100000001b3
}

// spawnEvent is the structural (observation) form of a spawn event.
func spawnEvent(op uint64, x int64, nd int) uint64 {
	return op ^ uint64(x)*0x9e3779b97f4a7c15 ^ uint64(nd)*0xc2b2ae3d27d4eb4f
}

// mixSpawnV folds a spawn's verification event — the structural event
// salted with the body's code pointer — into h. Replay-mode spawn calls
// and the recorder's veh updates must agree exactly.
func mixSpawnV(h, op uint64, x int64, nd int, pc uintptr) uint64 {
	return mix2(h, spawnEvent(op, x, nd)^smix(uint64(pc)))
}

// pcOf returns the code pointer identifying a body closure. Two closures
// created from the same func literal share it, which is exactly the
// granularity replay verification needs (captured variables are checked
// by the event hashes they produce, not by identity).
func pcOf(v any) uintptr { return reflect.ValueOf(v).Pointer() }

// foldFrame digests one retired frame's observation state into its
// commutative contribution to the run's shape key.
func foldFrame(fr *frame) uint64 {
	return smix(fr.ph ^ smix(fr.eh))
}

// observeSpawn maintains observation (and recording) state across one
// spawn edge: the parent's event hash and pedigree ordinal advance, the
// child's per-life state is initialized. Runs on the spawning worker
// only, so all writes are plain. The child's fn/xfn/x must be wired
// before the call (newStrand snapshots them).
func (r *run) observeSpawn(parent, child *frame, op uint64, x int64, nd int, body any) {
	ev := spawnEvent(op, x, nd)
	parent.eh = mix2(parent.eh, ev)
	parent.spawnN++
	child.ph = core.PedigreeChild(parent.ph, int(parent.spawnN))
	child.eh, child.spawnN = 0, 0
	if r.recording {
		parent.veh = mix2(parent.veh, ev^smix(uint64(pcOf(body))))
		child.veh = 0
		prs := parent.rec
		pidx := int32(-1)
		if prs != nil {
			pidx = prs.idx
		}
		child.rec = r.recorder.newStrand(pidx, child)
	}
}
