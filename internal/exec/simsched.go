package exec

import (
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/sim"
	"github.com/ndflow/ndflow/internal/telemetry"
)

// SimScheduler runs the engine's own ready structure in virtual time: a
// sim.Scheduler whose simulated processors are goroutine-less workers
// over an engine built without its goroutines, so the schedules and
// steals the simulator reports at any modelled P are the production
// scheduler's. Nobody parks, so publish's wake check always reads zero
// sleepers. Victim selection is seeded by processor index, so a run is a
// pure function of graph and machine.
type SimScheduler struct {
	ctx   *sim.Ctx
	e     *Engine
	ws    []*Worker
	next  []int64 // per processor: the chained task word, -1 for none
	ready []int32 // the strands the last completion enabled
}

// NewSimScheduler returns a virtual-time engine scheduler; Init sizes it
// to the machine.
func NewSimScheduler() *SimScheduler { return &SimScheduler{} }

// Init builds one worker per simulated processor and queues the
// initially-ready strands on the injector, as a submission does.
func (s *SimScheduler) Init(ctx *sim.Ctx) error {
	procs := ctx.Machine.Processors()
	s.e = newEngine(procs, engineConfig{})
	s.ws = make([]*Worker, procs)
	s.next = make([]int64, procs)
	for p := range s.ws {
		s.ws[p] = newWorker(s.e, p)
		s.next[p] = -1
	}
	s.ctx = ctx
	for _, id := range ctx.Tracker.TakeReadyIDs(nil) {
		s.e.inject = append(s.e.inject, packTask(0, id))
	}
	return nil
}

// Pick is the worker loop's task acquisition without the parking ladder:
// the chained next task, the own deque, the injector, the steal sweep.
func (s *SimScheduler) Pick(proc int) *core.Node {
	t := s.next[proc]
	s.next[proc] = -1
	if t < 0 {
		var ok bool
		if t, ok = s.e.deques[proc].pop(); !ok {
			if t, ok = s.e.takeInjectLocked(proc); !ok {
				if t, ok = s.e.sweep(s.ws[proc]); !ok {
					return nil
				}
			}
		}
	}
	_, id := unpackTask(t)
	return s.ctx.Exec.Strand(id)
}

// Done publishes what the completion enabled (the simulator has already
// completed the strand on ctx.Tracker, whose cascade is the concurrent
// tracker's): the last enabled strand becomes proc's next task, the rest
// go on its deque.
func (s *SimScheduler) Done(proc int, _ *core.Node) {
	s.ready = s.ctx.Tracker.TakeReadyIDs(s.ready[:0])
	s.next[proc] = s.e.publish(proc, 0, s.ready)
}

// Progress is constant: the steal sweep is exhaustive (the sweep
// contract, sched.go), so a nil Pick means no task is queued anywhere.
func (s *SimScheduler) Progress() uint64 { return 0 }

// Metrics returns the simulated engine's counter registry; its
// telemetry.MSteals counts the steals of the last run.
func (s *SimScheduler) Metrics() *telemetry.Registry { return s.e.Metrics() }
