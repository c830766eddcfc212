// Package ndflow is a library for writing and executing programs in the
// Nested Dataflow (ND) model of Dinh, Simhadri and Tang, "Extending the
// Nested Parallel Model to the Nested Dataflow Model with Provably
// Efficient Schedulers" (SPAA 2016).
//
// The ND model extends nested (fork-join) parallelism with a third
// composition construct, the fire construct "~>", which expresses partial
// dependencies between subtasks via recursive rewriting rules over
// pedigrees. This package exposes:
//
//   - the spawn-tree builder (Strand, Seq, Par, Fire) and fire-rule sets;
//   - the DAG Rewriting System (Rewrite) producing executable algorithm
//     DAGs, plus work/span analysis and critical paths;
//   - the paper's cost metrics: parallel cache complexity Q*(t;M),
//     effective cache complexity Q̂α(t;M) and parallelizability αmax;
//   - a Parallel Memory Hierarchy simulator with work-stealing and
//     space-bounded schedulers, for reproducing the paper's Theorem 1 and
//     Theorem 3 guarantees;
//   - a real goroutine runtime executing ND DAGs on actual cores, both as
//     one-shot runs (Run) and as a long-lived execution engine (NewEngine)
//     with a shared worker pool, zero-allocation graph re-runs and a
//     compiled-program cache;
//   - ND and NP reference implementations of the paper's algorithm suite
//     (matrix multiply, triangular solves, Cholesky, LU with partial
//     pivoting, 1-D/2-D Floyd–Warshall, LCS) in subpackages of
//     internal/algos, surfaced through the experiment harness.
//
// See the examples directory for runnable programs and DESIGN.md for the
// architecture; DESIGN.md's experiment index maps each table the harness
// regenerates (E1…E9, A1…A2) to the paper claim it reproduces.
package ndflow

import (
	"io"
	"runtime"
	"strconv"
	"sync"

	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/deps"
	"github.com/ndflow/ndflow/internal/dyn"
	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/footprint"
	"github.com/ndflow/ndflow/internal/metrics"
	"github.com/ndflow/ndflow/internal/pmh"
	"github.com/ndflow/ndflow/internal/sched/spacebound"
	"github.com/ndflow/ndflow/internal/sched/worksteal"
	"github.com/ndflow/ndflow/internal/sim"
	"github.com/ndflow/ndflow/internal/telemetry"
)

// Model types re-exported from the core.
type (
	// Node is a spawn-tree node; a subtree is a task.
	Node = core.Node
	// Program is a frozen spawn tree with its fire-rule set.
	Program = core.Program
	// Graph is the event graph of the algorithm DAG implied by a program.
	Graph = core.Graph
	// ExecGraph is the compiled flat form of an event graph: CSR
	// adjacency, a precomputed topological order and dense strand IDs.
	// Every traversal and runtime executes against it.
	ExecGraph = core.ExecGraph
	// Pedigree locates a subtask relative to an ancestor (1-based child
	// indices; Wildcard matches every child).
	Pedigree = core.Pedigree
	// Rule is a single fire-rewriting rule "+src type~> -dst".
	Rule = core.Rule
	// RuleSet maps fire-construct type names to their rules.
	RuleSet = core.RuleSet
	// Footprint is a set of word-address intervals.
	Footprint = footprint.Set
	// Interval is a half-open range of word addresses.
	Interval = footprint.Interval
)

// FullDep is the rule type denoting a full (serial) dependency.
const FullDep = core.FullDep

// Wildcard is the pedigree component matching every child.
const Wildcard = core.Wildcard

// Strand creates a leaf task: serial code with the given unit-cost work,
// declared read/write footprints, and an optional closure executed by the
// real runtime.
func Strand(label string, work int64, reads, writes Footprint, run func()) *Node {
	return core.NewStrand(label, work, reads, writes, run)
}

// Seq composes tasks serially (the paper's ";").
func Seq(children ...*Node) *Node { return core.NewSeq(children...) }

// Par composes tasks in parallel (the paper's "‖").
func Par(children ...*Node) *Node { return core.NewPar(children...) }

// Fire composes two tasks with the fire construct (the paper's "~>"):
// dst partially depends on src as defined by the named type's rules.
func Fire(fireType string, src, dst *Node) *Node { return core.NewFire(fireType, src, dst) }

// R builds a Rule from dot-separated pedigree strings (e.g. "2.1") with
// "*" as the wildcard; it panics on malformed input and is intended for
// package-level rule tables.
func R(src, fireType, dst string) Rule { return core.R(src, fireType, dst) }

// NewProgram freezes a spawn tree against a rule set, validating both.
func NewProgram(root *Node, rules RuleSet) (*Program, error) {
	return core.NewProgram(root, rules)
}

// Rewrite runs the DAG Rewriting System, producing the event graph of the
// program's algorithm DAG.
func Rewrite(p *Program) (*Graph, error) { return core.Rewrite(p) }

// Compile returns the event graph's compiled flat form (built once when
// the DRS finishes; this accessor never re-runs the compile step).
func Compile(g *Graph) *ExecGraph { return g.Exec() }

// Words builds a footprint from a single interval [lo, hi).
func Words(lo, hi int64) Footprint { return footprint.Single(lo, hi) }

// --- Analysis

// Work returns T1, the total work of the program.
func Work(p *Program) int64 { return p.Work() }

// Span returns T∞, the critical path length of the algorithm DAG.
func Span(g *Graph) int64 { return g.Span() }

// CriticalPath returns the strands along one longest path.
func CriticalPath(g *Graph) []*Node { return g.CriticalPath() }

// PCC returns the parallel cache complexity Q*(t;M) of the program's
// root task (§4 of the paper).
func PCC(p *Program, m int64) int64 { return metrics.PCC(p, m) }

// ECC returns the effective cache complexity Q̂α(t;M) (Definition 2).
func ECC(g *Graph, m int64, alpha float64) float64 { return metrics.ECC(g, m, alpha) }

// AlphaMax estimates the parallelizability of an algorithm family from
// instances of increasing size; see metrics.AlphaMax.
func AlphaMax(graphs []*Graph, m int64, grid []float64, growthTol float64) float64 {
	a, _ := metrics.AlphaMax(graphs, m, grid, growthTol)
	return a
}

// CheckDependencies verifies that the DAG enforces every true data
// dependency derived from strand footprints, returning the number of
// dependencies checked. Programs passing this check compute their serial
// elision's result under every legal schedule.
func CheckDependencies(g *Graph) (int, error) {
	rep, err := deps.Check(g)
	if err != nil {
		return 0, err
	}
	if !rep.Ok() {
		return rep.Conflicts, &UncoveredError{Violations: len(rep.Violations), Conflicts: rep.Conflicts}
	}
	return rep.Conflicts, nil
}

// UncoveredError reports fire rules that fail to enforce true
// dependencies.
type UncoveredError struct {
	Violations, Conflicts int
}

func (e *UncoveredError) Error() string {
	return "ndflow: " + strconv.Itoa(e.Violations) + " of " + strconv.Itoa(e.Conflicts) + " true data dependencies are not enforced by the DAG"
}

// --- Real execution

// Engine is a long-lived work-stealing execution engine: a worker pool
// spawned once (workers park when idle, they are never respawned per run)
// that accepts concurrent submissions and multiplexes every in-flight
// graph execution over one set of deques. Per-graph run state is pooled
// and rewound by generation stamp, and Rewrite+Compile results are cached
// per program, so re-running a cached program allocates nothing in the
// steady state. Scheduling state is the engine's only per-run isolation:
// concurrent in-flight runs of one graph execute the same strand closures
// over the same data, so give each concurrent submitter its own graph
// when strand bodies write.
type Engine = exec.Engine

// Submission is the handle of one in-flight engine execution; call Wait
// (exactly once) to block until it completes.
type Submission = exec.Run

// Policy selects an engine's ready-structure and ordering discipline.
// Every policy produces bit-identical outputs; only the order in which
// ready strands start differs. See DESIGN.md's "exec: the scheduler
// seam" section.
type Policy = exec.Policy

// EngineOption configures NewEngine.
type EngineOption = exec.Option

// The scheduling policies: FIFO submission order with LIFO/steal deques
// (the default); critical-path-first by compile-time depth-to-sink; the
// relaxed MultiQueue structure (per-worker queue pairs, pick-2-random
// stealing) trading strict priority order — within O(workers·log workers)
// rank inversions w.h.p. — for contention-free throughput; and locality,
// which groups the workers into cache domains shaped like a real machine
// (pmh.DefaultSpec at the worker count), steals nearest-first, and
// anchors tasks whose compiled footprint σ-fits a domain's cache to it —
// the online analogue of the paper's space-bounded scheduler (§4;
// internal/exec.WithTopology takes an explicit machine spec and σ).
const (
	PolicyFIFO         = exec.PolicyFIFO
	PolicyCriticalPath = exec.PolicyCriticalPath
	PolicyRelaxed      = exec.PolicyRelaxed
	PolicyLocality     = exec.PolicyLocality
)

// WithPolicy selects the engine's scheduling policy. It composes with
// every other option: any policy can be traced and fault-injected.
func WithPolicy(p Policy) EngineOption { return exec.WithPolicy(p) }

// --- Telemetry
//
// Every engine carries a metrics registry — sharded, always-on counters
// for scheduling, cache, topology, dynamic-runtime, and JIT activity —
// read with Engine.Metrics().Snapshot(). Strand-level tracing is opt-in:
// arm an engine with WithTracing(NewTracer()) and every run records
// dispatch/complete, steal, park and future events into per-worker
// slabs, stitched into a Trace when the run finishes. Export a Trace
// with Trace.WriteChrome (load in about:tracing or Perfetto) and a
// Snapshot with Snapshot.WritePrometheus. See DESIGN.md's "telemetry"
// section.

// Tracer collects per-run strand-level traces; see WithTracing.
type Tracer = telemetry.Tracer

// Trace is one finished run's stitched event stream.
type Trace = telemetry.Trace

// TraceEvent is one record in a Trace.
type TraceEvent = telemetry.Event

// MetricsRegistry is an engine's counter registry (Engine.Metrics).
type MetricsRegistry = telemetry.Registry

// MetricsSnapshot is a point-in-time read of every counter; diff two
// with Snapshot.Delta, export with WritePrometheus.
type MetricsSnapshot = telemetry.Snapshot

// NewTracer returns an empty tracer ready to arm an engine with
// WithTracing. A tracer belongs to exactly one engine.
func NewTracer() *Tracer { return telemetry.NewTracer() }

// WithTracing arms the engine with a strand-level tracer: each run's
// events are stitched into a Trace retrievable with Tracer.Take (or
// Tracer.TakeLast + Tracer.Recycle for alloc-free steady state). A nil
// tracer leaves tracing disabled.
func WithTracing(tr *Tracer) EngineOption { return exec.WithTracing(tr) }

// --- Failure model
//
// Every strand body — compiled, serial, or dynamic — runs under a panic
// guard: the first panic of a run is captured as a *StrandPanicError,
// remaining bodies of that run are skipped at dispatch (their
// completions still run, so the run drains and Wait returns), and the
// engine stays healthy for later submissions. Runs can be cancelled
// (Submission.Cancel, or Engine.SubmitCtx / Engine.RunCtx under a
// context deadline), and a dynamic run parked on futures nobody can
// resolve is failed by the engine's quiescence watchdog with an
// *UnresolvedFutureError instead of hanging — register external feeders
// with Engine.RegisterResolver. See DESIGN.md's "failure model" section.

// StrandPanicError is the typed error Wait returns when a strand body
// panicked: it carries the strand's ID and label, the panic value, and
// the panicking goroutine's stack. Test with errors.As.
type StrandPanicError = exec.StrandPanicError

// UnresolvedFutureError is the typed error Wait returns when the
// engine's quiescence watchdog failed a dynamic run that was parked on
// unresolved futures with no registered external resolver (deadlock).
type UnresolvedFutureError = exec.UnresolvedFutureError

// ErrRunCanceled is the error a cancelled run's Wait returns (runs
// cancelled through a context return the context's error instead). Test
// with errors.Is.
var ErrRunCanceled = exec.ErrRunCanceled

// ErrEngineClosed is the typed error submissions to a closed engine
// return. Test with errors.Is.
var ErrEngineClosed = exec.ErrEngineClosed

// FaultKind is a chaos-testing fault decision; see WithFaultInjector.
type FaultKind = exec.Fault

// The chaos-hook fault decisions: run the strand normally, panic through
// the recover path, delay briefly, or cancel the strand's run.
const (
	FaultNone   = exec.FaultNone
	FaultPanic  = exec.FaultPanic
	FaultDelay  = exec.FaultDelay
	FaultCancel = exec.FaultCancel
)

// WithFaultInjector installs a chaos hook consulted at every compiled
// strand dispatch — a test harness for proving systems built on the
// engine survive panics, delays, and cancellations at arbitrary points.
// The hook must be safe for concurrent use.
func WithFaultInjector(fn func(strand int32) FaultKind) EngineOption {
	return exec.WithFaultInjector(fn)
}

// NewEngine starts an engine with the given worker count (GOMAXPROCS when
// workers ≤ 0). Submit work with Engine.Run or Engine.Submit; shut it
// down with Engine.Close. Options select the scheduling policy and arm
// tracing or fault injection, e.g. NewEngine(8, WithPolicy(PolicyLocality),
// WithTracing(tr)).
func NewEngine(workers int, opts ...EngineOption) *Engine { return exec.NewEngine(workers, opts...) }

var (
	defaultEngineOnce sync.Once
	defaultEngine     *Engine
)

// DefaultEngine returns the lazily-started package-default engine
// (GOMAXPROCS workers). It lives for the process; Run uses it.
func DefaultEngine() *Engine {
	defaultEngineOnce.Do(func() { defaultEngine = exec.NewEngine(0) })
	return defaultEngine
}

// Run executes the program's strands on a lock-free work-stealing
// goroutine pool: per-worker deques with randomized stealing, readiness
// propagated by atomic indegree counters. With workers ≤ 0 it is a
// convenience wrapper over the package-default engine's shared, parked
// worker pool — with per-call run state, so one-shot graphs are not
// retained by the process-lifetime engine (create an Engine explicitly
// to get cached, zero-allocation re-runs). An explicit worker count runs
// on a transient engine of exactly that size, closed when Run returns.
func Run(g *Graph, workers int) error {
	if workers <= 0 {
		if runtime.GOMAXPROCS(0) == 1 {
			// A default-sized pool has one worker: keep RunParallel's
			// allocation-free compiled-schedule replay instead of paying
			// tracker construction and an engine round-trip.
			return exec.RunParallel(g, 1)
		}
		r, err := DefaultEngine().SubmitInstance(exec.NewInstance(g.Exec()))
		if err != nil {
			return err
		}
		return r.Wait()
	}
	return exec.RunParallel(g, workers)
}

// RunSerial executes the program's serial elision.
func RunSerial(g *Graph) error { return exec.RunElision(g) }

// --- Dynamic (online) execution
//
// The compiled pipeline above requires the whole spawn tree and fire-rule
// set up front. The dynamic API is the paper's programming model as it
// unfolds: strands spawn, sync and touch futures while the computation
// runs, and the scheduler discovers the DAG one task at a time — the form
// required for input-dependent recursion, pipelines and request streams.
// Dynamic tasks execute on the same engine worker pool as compiled
// submissions, interleaved on the same work-stealing deques.

// TaskContext is the capability handed to every dynamic task body: spawn
// children (Spawn, SpawnAfter, SpawnFor), join them (Sync, plus the
// implicit sync when the body returns), and resolve futures. Valid only
// during the body's call, on the calling goroutine.
type TaskContext = dyn.Context

// Future is a single-assignment dataflow cell — the dynamic analogue of a
// fire-construct edge. Put resolves it exactly once; Get suspends the
// calling strand until it is resolved (parking the continuation behind
// one atomic counter, the online counterpart of the wake-graph counters).
type Future = dyn.Future

// NewFuture returns an unresolved future.
func NewFuture() *Future { return dyn.NewFuture() }

// SubmitDynamic enqueues a dynamic task tree rooted at root on the engine
// (the package-default engine when e is nil) and returns its in-flight
// handle; Wait blocks until the root and its entire subtree (every
// transitively spawned task) have completed.
func SubmitDynamic(e *Engine, root func(*TaskContext)) (*Submission, error) {
	if e == nil {
		e = DefaultEngine()
	}
	return dyn.Submit(e, root)
}

// RunDynamic executes a dynamic task tree to completion on the engine
// (the package-default engine when e is nil). Steady-state re-runs reuse
// pooled frames and run state, so dynamic serving loops allocate O(1) per
// task.
func RunDynamic(e *Engine, root func(*TaskContext)) error {
	if e == nil {
		e = DefaultEngine()
	}
	return dyn.Run(e, root)
}

// DynProgram is a dynamic root task wrapped with adaptive replay
// compilation: repeated runs that unfold the same DAG shape are
// recorded, compiled, and replayed through the engine's compiled path,
// with a per-strand divergence guard falling back to live dynamic
// execution. The root must tolerate re-execution (see dyn.NewProgram).
type DynProgram = dyn.Program

// NewDynProgram wraps a dynamic root task for adaptive replay
// compilation; run it with p.Run(engine). The first few runs execute
// live while the shape cache warms (observe, then record), after which
// repeated shapes run on the compiled engine.
func NewDynProgram(root func(*TaskContext), cfg ...dyn.JITConfig) *DynProgram {
	return dyn.NewProgram(root, cfg...)
}

// --- Machine simulation

// MachineSpec describes a Parallel Memory Hierarchy (Figure 2).
type MachineSpec = pmh.Spec

// CacheSpec describes one PMH cache level.
type CacheSpec = pmh.CacheSpec

// SimResult summarizes a simulated execution.
type SimResult = sim.Result

// Simulate runs the program on a simulated PMH under the named scheduler
// policy ("sb" for space-bounded, "ws" for work stealing).
func Simulate(g *Graph, spec MachineSpec, policy string) (*SimResult, error) {
	m, err := pmh.New(spec)
	if err != nil {
		return nil, err
	}
	var sched sim.Scheduler
	switch policy {
	case "sb", "space-bounded":
		sched = spacebound.New(spacebound.Config{})
	case "ws", "work-stealing":
		sched = worksteal.New(1)
	default:
		return nil, &UnknownPolicyError{Policy: policy}
	}
	return sim.Run(g, m, sched)
}

// UnknownPolicyError reports an unrecognized scheduling policy name.
type UnknownPolicyError struct{ Policy string }

func (e *UnknownPolicyError) Error() string {
	return "ndflow: unknown scheduling policy " + e.Policy + ` (want "sb" or "ws")`
}

// WriteSpawnTreeDOT renders the spawn tree (and the DAG's arrows, if g is
// non-nil) in Graphviz DOT format.
func WriteSpawnTreeDOT(w io.Writer, p *Program, g *Graph) error {
	return core.WriteSpawnTreeDOT(w, p, g)
}
