// Package telemetry is the runtime's observability layer: a
// low-overhead sharded metrics registry (named monotonic counters,
// per-worker-slot cells summed on read) and a per-run strand-level
// tracer whose stitched traces export as Chrome trace_event JSON. The
// registry snapshot exports in Prometheus text-exposition format — the
// hand-off point for a serving daemon's /metrics endpoint.
//
// The registry's design constraint is the engine's hot path: a counter
// increment must never contend. Each Counter owns one cache-line-padded
// cell per worker slot (plus one shared cell for callers outside any
// worker), so concurrent increments from different workers touch
// different lines and an increment is a single uncontended atomic add.
// Reads sum the cells — snapshots are O(counters × shards), paid only
// by the observer.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Canonical counter names for the execution engine's metrics, shared by
// the exec and dyn packages and by bench harnesses reading snapshots.
// The _total suffix follows the Prometheus counter convention so the
// text exposition needs no renaming.
const (
	MRuns         = "engine_runs_total"          // runs retired (compiled + dynamic)
	MRunsFailed   = "engine_runs_failed_total"   // runs retired with a non-cancellation failure
	MRunsCanceled = "engine_runs_canceled_total" // runs retired cancelled (incl. context)

	MSteals  = "sched_steals_total"  // Chase–Lev deque steals from another worker
	MParks   = "sched_parks_total"   // workers parked on the idle condvar
	MInjects = "sched_injects_total" // task words injected from outside any worker
	MRescues = "sched_rescues_total" // quiescence-watchdog force-drains

	MProgHits   = "cache_program_hits_total"
	MProgMisses = "cache_program_misses_total"
	MInstHits   = "cache_instance_hits_total"
	MInstMisses = "cache_instance_misses_total"
	MEvictions  = "cache_evictions_total"

	MDynParks     = "dyn_parks_total"     // dyn strands suspended mid-body (Sync or future Get)
	MDynResumes   = "dyn_resumes_total"   // suspended dyn strands resumed
	MDynDonations = "dyn_donations_total" // worker identities donated to parked continuations

	MJITRecords     = "jit_records_total"     // recording runs started
	MJITReplays     = "jit_replays_total"     // warm runs attempted on the compiled path
	MJITHits        = "jit_hits_total"        // warm runs served entirely by the compiled path
	MJITDivergences = "jit_divergences_total" // replays that diverged and fell back to live
	MJITVetoes      = "jit_vetoes_total"      // recordings abandoned or failed to compile
)

// cell is one shard's slot of one counter, padded so adjacent shards
// never share a cache line (the whole point of sharding); ndlint's
// padalign analyzer pins the size to a 64-byte multiple.
//
//ndlint:cacheline
type cell struct {
	n atomic.Uint64
	_ [56]byte
}

// Counter is a named monotonic counter sharded by worker slot. An
// increment is one atomic add on the caller's private cell; Value sums
// the cells. Handles are stable for the registry's lifetime — resolve
// once, increment forever.
type Counter struct {
	name  string
	cells []cell
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Inc adds 1 to the shard's cell. Out-of-range shards (callers without
// a worker identity) land on the shared cell.
//
//ndlint:noalloc
func (c *Counter) Inc(shard int) { c.Add(shard, 1) }

// Add adds n to the shard's cell. Workers call it on every dispatch, so
// it is a hot path in its own right: one bounds clamp and one atomic
// add, nothing that can block or allocate.
//
//ndlint:hotpath
//ndlint:noalloc
func (c *Counter) Add(shard int, n uint64) {
	if uint(shard) >= uint(len(c.cells)) {
		shard = len(c.cells) - 1
	}
	c.cells[shard].n.Add(n)
}

// IncShared adds 1 to the shared (last) cell — for call sites outside
// any worker: submitters, external resolvers, mutex-held slow paths.
//
//ndlint:noalloc
func (c *Counter) IncShared() { c.cells[len(c.cells)-1].n.Add(1) }

// AddShared adds n to the shared cell.
//
//ndlint:noalloc
func (c *Counter) AddShared(n uint64) { c.cells[len(c.cells)-1].n.Add(n) }

// Value sums the shards: the counter's current total. It may race
// concurrent increments (each cell read is atomic; the sum is a moment
// spread across the scan), which is the usual monotonic-counter
// guarantee.
func (c *Counter) Value() uint64 {
	var v uint64
	for i := range c.cells {
		v += c.cells[i].n.Load()
	}
	return v
}

// Registry is a set of named sharded counters with one shard per worker
// slot plus one shared shard. Counter registration is get-or-create and
// safe for concurrent use; increments through the returned handles
// never take the registry lock.
type Registry struct {
	shards int

	mu       sync.Mutex
	counters map[string]*Counter
}

// NewRegistry returns a registry whose counters carry shards cells each
// (workers + 1: one per worker slot and one shared). shards < 1 is
// clamped to 1.
func NewRegistry(shards int) *Registry {
	if shards < 1 {
		shards = 1
	}
	return &Registry{shards: shards, counters: make(map[string]*Counter)}
}

// Shards returns the per-counter cell count (worker slots + 1).
func (r *Registry) Shards() int { return r.shards }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name, cells: make([]cell, r.shards)}
		r.counters[name] = c
	}
	return c
}

// Snapshot reads every registered counter.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	cs := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		cs = append(cs, c)
	}
	r.mu.Unlock()
	s := Snapshot{Values: make(map[string]uint64, len(cs))}
	for _, c := range cs {
		s.Values[c.name] = c.Value()
	}
	return s
}

// Snapshot is a point-in-time reading of a registry's counters.
// Counters are cumulative over the registry's lifetime; Delta meters an
// interval (a run, a benchmark window) from two snapshots.
type Snapshot struct {
	Values map[string]uint64
}

// Get returns the named counter's value, 0 when absent.
func (s Snapshot) Get(name string) uint64 { return s.Values[name] }

// Names returns the snapshot's counter names, sorted.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Values))
	for n := range s.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Delta returns s − prev per counter: the activity between the two
// snapshots. Counters absent from prev read as 0 (registered mid-
// interval); counters absent from s are dropped. Values that shrank
// (snapshots from different registries) clamp to 0 rather than wrap.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{Values: make(map[string]uint64, len(s.Values))}
	for n, v := range s.Values {
		if p := prev.Values[n]; p <= v {
			d.Values[n] = v - p
		}
	}
	return d
}
