// Package exec runs ND programs for real: strand closures are executed in
// an order consistent with the algorithm DAG. Three serial drivers are
// provided — the serial elision (the differential reference), an
// adversarial randomized topological order (for testing that fire rules
// enforce every dependency) and a deterministic reverse-greedy order —
// beside the Engine, the lock-free work-stealing runtime every parallel
// execution goes through (RunParallel is a one-shot wrapper over it).
package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"

	"github.com/ndflow/ndflow/internal/core"
)

// guardBody runs one strand body under the panic guard shared by every
// serial driver in this file, converting a panic into the same
// *StrandPanicError the engine returns — error behavior is identical
// across the workers knob and the runtime choice.
func guardBody(id int32, label string, body func()) *StrandPanicError {
	var perr *StrandPanicError
	func() {
		defer func() {
			if p := recover(); p != nil {
				perr = &StrandPanicError{Strand: id, Label: label, Value: p, Stack: debug.Stack()}
			}
		}()
		body()
	}()
	return perr
}

// RunElision executes the program's strands in serial-elision (left-to-
// right) order, verifying along the way that the elision is a legal
// schedule of the DAG (it is, for every valid ND program).
func RunElision(g *core.Graph) error {
	t := core.NewTracker(g)
	for i, leaf := range g.P.Leaves {
		if leaf.Run != nil {
			if perr := guardBody(int32(i), leaf.Label, leaf.Run); perr != nil {
				return perr
			}
		}
		if err := t.Complete(leaf); err != nil {
			return err
		}
	}
	if !t.Done() {
		return fmt.Errorf("exec: elision finished with %d of %d strands executed", t.Executed(), len(g.P.Leaves))
	}
	return nil
}

// RunRandomTopo executes the strands in a uniformly random legal
// topological order drawn from the DAG. Running an ND algorithm this way
// and comparing against its serial reference is the strongest correctness
// test of a rule set: any missing dependency eventually produces a
// mis-ordered execution and a wrong result.
func RunRandomTopo(g *core.Graph, seed int64) error {
	r := rand.New(rand.NewSource(seed))
	eg := g.Exec()
	t := core.NewTracker(g)
	pool := t.TakeReadyIDs(nil)
	for len(pool) > 0 {
		i := r.Intn(len(pool))
		id := pool[i]
		pool[i] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		if leaf := eg.Strand(id); leaf.Run != nil {
			if perr := guardBody(id, leaf.Label, leaf.Run); perr != nil {
				return perr
			}
		}
		if err := t.CompleteID(id); err != nil {
			return err
		}
		pool = t.TakeReadyIDs(pool)
	}
	if !t.Done() {
		return fmt.Errorf("exec: random topo order stalled at %d of %d strands (DAG deadlock)", t.Executed(), len(g.P.Leaves))
	}
	return nil
}

// RunReverseGreedy executes strands by always picking the ready strand
// with the greatest leaf index: the schedule furthest from the serial
// elision. Useful as a deterministic adversarial order.
func RunReverseGreedy(g *core.Graph) error {
	eg := g.Exec()
	t := core.NewTracker(g)
	pool := t.TakeReadyIDs(nil)
	for len(pool) > 0 {
		best := 0
		for i, id := range pool {
			if id > pool[best] {
				best = i
			}
		}
		id := pool[best]
		pool[best] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		if leaf := eg.Strand(id); leaf.Run != nil {
			if perr := guardBody(id, leaf.Label, leaf.Run); perr != nil {
				return perr
			}
		}
		if err := t.CompleteID(id); err != nil {
			return err
		}
		pool = t.TakeReadyIDs(pool)
	}
	if !t.Done() {
		return fmt.Errorf("exec: reverse-greedy order stalled at %d of %d strands", t.Executed(), len(g.P.Leaves))
	}
	return nil
}

// RunParallel executes the program once on a dedicated pool of worker
// goroutines (default GOMAXPROCS when workers ≤ 0): a transient Engine
// started for this run and closed when it returns, so one-shot callers
// get the engine's lock-free scheduling and failure model without
// managing an engine's lifetime. Create an Engine explicitly to amortize
// the pool and the run state across runs.
func RunParallel(g *core.Graph, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	eg := g.Exec()
	if workers == 1 {
		// Degenerate pool: one worker steals from nobody, and the compile
		// step already proved acyclicity and banked a legal serial
		// schedule (the topological order of strand starts), so readiness
		// bookkeeping vanishes entirely: just run the schedule.
		for _, id := range eg.TopoStrands() {
			if leaf := eg.Strand(id); leaf.Run != nil {
				if perr := guardBody(id, leaf.Label, leaf.Run); perr != nil {
					return perr
				}
			}
		}
		if total := eg.NumStrands(); len(eg.TopoStrands()) != total {
			return fmt.Errorf("exec: compiled schedule covers %d of %d strands", len(eg.TopoStrands()), total)
		}
		return nil
	}
	e := NewEngine(workers)
	defer e.Close()
	r, err := e.SubmitInstance(NewInstance(eg))
	if err != nil {
		return err
	}
	return r.Wait()
}
