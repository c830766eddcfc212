// Cross-runtime differential tests: every algorithm builder executed via
// the serial elision, the adversarial serial orders (random topological,
// reverse greedy), the one-shot work stealer, the long-lived engine, the
// online dynamic runtime and its JIT must produce bit-identical output
// matrices. The
// compiled runtimes propagate readiness through the strand-level wake
// graph (serial drivers via Tracker, parallel ones via
// ConcurrentTracker); the dynamic runtime rebuilds the dependency
// structure online from Spawn/Future gating and learns the DAG one task
// at a time. All seven execute the same strand closures, and the deps
// validator guarantees conflicting accesses are ordered by the DAG, so
// any divergence — down to the last mantissa bit — is a scheduler,
// wake-graph-collapse or suspension bug. Run under -race in CI.
package ndflow_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/cholesky"
	"github.com/ndflow/ndflow/internal/algos/fw"
	"github.com/ndflow/ndflow/internal/algos/lcs"
	"github.com/ndflow/ndflow/internal/algos/lu"
	"github.com/ndflow/ndflow/internal/algos/matmul"
	"github.com/ndflow/ndflow/internal/algos/stencil"
	"github.com/ndflow/ndflow/internal/algos/trs"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/dyn"
	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/matrix"
)

// diffCase builds a fresh instance of an algorithm and exposes its output
// state. Each build call must allocate fresh data (programs execute in
// place); outputs returns every matrix the program writes.
type diffCase struct {
	name   string
	models []algos.Model
	// idempotent marks algorithms whose re-execution over already-computed
	// state reproduces it (pure forward recurrences), so the engine's
	// generation-reset re-run path can be differentially tested on one
	// instance.
	idempotent bool
	build      func(model algos.Model) (*core.Graph, []*matrix.Matrix, error)
}

func diffCases() []diffCase {
	nd := []algos.Model{algos.NP, algos.ND}
	return []diffCase{
		{
			name: "MM", models: nd,
			build: func(model algos.Model) (*core.Graph, []*matrix.Matrix, error) {
				r := rand.New(rand.NewSource(41))
				s := matrix.NewSpace()
				a, b, c := matrix.New(s, 16, 16), matrix.New(s, 16, 16), matrix.New(s, 16, 16)
				a.FillRandom(r)
				b.FillRandom(r)
				prog, err := matmul.New(model, c, a, b, 1, 4)
				if err != nil {
					return nil, nil, err
				}
				g, err := core.Rewrite(prog)
				return g, []*matrix.Matrix{c}, err
			},
		},
		{
			name: "TRS", models: nd,
			build: func(model algos.Model) (*core.Graph, []*matrix.Matrix, error) {
				r := rand.New(rand.NewSource(42))
				s := matrix.NewSpace()
				tm := matrix.New(s, 16, 16)
				tm.FillLowerTriangular(r)
				b := matrix.New(s, 16, 16)
				b.FillRandom(r)
				prog, err := trs.New(model, tm, b, 4)
				if err != nil {
					return nil, nil, err
				}
				g, err := core.Rewrite(prog)
				return g, []*matrix.Matrix{b}, err
			},
		},
		{
			name: "Cholesky", models: nd,
			build: func(model algos.Model) (*core.Graph, []*matrix.Matrix, error) {
				r := rand.New(rand.NewSource(43))
				s := matrix.NewSpace()
				a := matrix.New(s, 16, 16)
				a.FillSPD(r)
				prog, _, err := cholesky.New(model, a, 4)
				if err != nil {
					return nil, nil, err
				}
				g, err := core.Rewrite(prog)
				return g, []*matrix.Matrix{a}, err
			},
		},
		{
			name: "LU", models: nd,
			build: func(model algos.Model) (*core.Graph, []*matrix.Matrix, error) {
				r := rand.New(rand.NewSource(44))
				s := matrix.NewSpace()
				a := matrix.New(s, 16, 16)
				a.FillRandom(r)
				for i := 0; i < 16; i++ {
					a.Add(i, i, 2)
				}
				inst, err := lu.NewInstance(s, a, 4)
				if err != nil {
					return nil, nil, err
				}
				prog, err := lu.New(model, inst)
				if err != nil {
					return nil, nil, err
				}
				g, err := core.Rewrite(prog)
				return g, []*matrix.Matrix{inst.A, inst.Piv}, err
			},
		},
		{
			name: "FW-1D", models: nd, idempotent: true,
			build: func(model algos.Model) (*core.Graph, []*matrix.Matrix, error) {
				inst := fw.NewInstance(matrix.NewSpace(), 16, 45)
				prog, err := fw.New(model, inst, 4)
				if err != nil {
					return nil, nil, err
				}
				g, err := core.Rewrite(prog)
				return g, []*matrix.Matrix{inst.Table}, err
			},
		},
		{
			// The 2-D Floyd–Warshall tree is NP-only (see fw2d.go).
			name: "FW-2D", models: []algos.Model{algos.NP}, idempotent: true,
			build: func(model algos.Model) (*core.Graph, []*matrix.Matrix, error) {
				inst := fw.NewAPSP(matrix.NewSpace(), 16, 46)
				prog, err := fw.New2D(inst, 4)
				if err != nil {
					return nil, nil, err
				}
				g, err := core.Rewrite(prog)
				return g, []*matrix.Matrix{inst.Dist}, err
			},
		},
		{
			name: "LCS", models: nd, idempotent: true,
			build: func(model algos.Model) (*core.Graph, []*matrix.Matrix, error) {
				inst := lcs.NewInstance(matrix.NewSpace(), 16, 3, 47)
				prog, err := lcs.New(model, inst, 4)
				if err != nil {
					return nil, nil, err
				}
				g, err := core.Rewrite(prog)
				return g, []*matrix.Matrix{inst.Table}, err
			},
		},
		{
			name: "Stencil", models: nd, idempotent: true,
			build: func(model algos.Model) (*core.Graph, []*matrix.Matrix, error) {
				inst := stencil.NewInstance(matrix.NewSpace(), 16, 48)
				prog, err := stencil.New(model, inst, 4)
				if err != nil {
					return nil, nil, err
				}
				g, err := core.Rewrite(prog)
				return g, []*matrix.Matrix{inst.Table}, err
			},
		},
	}
}

// bits flattens the output matrices into their exact IEEE-754 bit
// patterns, so comparison is bit-identical (and NaN-safe), not
// tolerance-based.
func bits(outs []*matrix.Matrix) []uint64 {
	var w []uint64
	for _, m := range outs {
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				w = append(w, math.Float64bits(m.At(i, j)))
			}
		}
	}
	return w
}

func diffBits(t *testing.T, label string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: output has %d words, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: output word %d = %#x, reference %#x (not bit-identical)", label, i, got[i], want[i])
		}
	}
}

// diffEngine starts a 4-worker engine with the options.
func diffEngine(opts ...exec.Option) *exec.Engine {
	return exec.NewEngine(4, opts...)
}

// submitTo runs one graph to completion on the engine.
func submitTo(e *exec.Engine) func(g *core.Graph) error {
	return func(g *core.Graph) error {
		r, err := e.Submit(g)
		if err != nil {
			return err
		}
		return r.Wait()
	}
}

// TestRuntimesBitIdentical is the cross-runtime differential: for every
// algorithm and model, each runtime executes a fresh instance and must
// reproduce the serial elision's output bit for bit. The engine cases
// also exercise instance-pool reuse by submitting through shared engines.
func TestRuntimesBitIdentical(t *testing.T) {
	eng := diffEngine()
	defer eng.Close()
	runtimes := []struct {
		name string
		// idemOnly restricts the runtime to idempotent cases: runtimes
		// that execute the same instance more than once.
		idemOnly bool
		run      func(g *core.Graph) error
	}{
		{"elision", false, exec.RunElision},
		{"random-topo", false, func(g *core.Graph) error { return exec.RunRandomTopo(g, 99) }},
		{"reverse-greedy", false, exec.RunReverseGreedy},
		{"lockfree-4", false, func(g *core.Graph) error { return exec.RunParallel(g, 4) }},
		{"engine", false, submitTo(eng)},
		// The online runtime: the same strand closures driven through
		// Spawn/SpawnAfter/Future gating (dyn.Replay), with the DAG
		// revealed to the scheduler one task at a time. Shares the
		// engine's workers and deques with the compiled submissions.
		{"dyn", false, func(g *core.Graph) error { return dyn.RunGraph(eng, g) }},
		// The adaptive-replay JIT: the same dynamic
		// program run until its shape compiles, then once more through
		// the compiled engine. Restricted to idempotent cases because the
		// ladder re-executes one instance (observe ×2, record, replay).
		{"dyn-jit", true, func(g *core.Graph) error {
			eg := g.Exec()
			p := dyn.NewProgram(dyn.Replay(eg, dyn.StrandDeps(eg)))
			for i := 0; i < 4; i++ {
				if err := p.Run(eng); err != nil {
					return err
				}
			}
			st := p.Stats()
			if !p.Compiled() || st.Hits == 0 || st.Divergences > 0 {
				return fmt.Errorf("shape cache never served a warm run: %+v", st)
			}
			return nil
		}},
	}
	for _, c := range diffCases() {
		for _, model := range c.models {
			t.Run(fmt.Sprintf("%s/%s", c.name, model), func(t *testing.T) {
				var want []uint64
				for _, rt := range runtimes {
					if rt.idemOnly && !c.idempotent {
						continue
					}
					g, outs, err := c.build(model)
					if err != nil {
						t.Fatalf("%s: build: %v", rt.name, err)
					}
					if err := rt.run(g); err != nil {
						t.Fatalf("%s: run: %v", rt.name, err)
					}
					if want == nil {
						want = bits(outs) // elision is the reference
						continue
					}
					diffBits(t, rt.name, bits(outs), want)
				}
			})
		}
	}
}

// TestEngineRerunsBitIdentical re-submits ONE instance of each idempotent
// algorithm through the engine several times: the generation-rewound
// tracker must drive exactly the same computation, leaving the output
// bit-identical to the first pass.
func TestEngineRerunsBitIdentical(t *testing.T) {
	eng := exec.NewEngine(4)
	defer eng.Close()
	for _, c := range diffCases() {
		if !c.idempotent {
			continue
		}
		for _, model := range c.models {
			t.Run(fmt.Sprintf("%s/%s", c.name, model), func(t *testing.T) {
				g, outs, err := c.build(model)
				if err != nil {
					t.Fatal(err)
				}
				var want []uint64
				for rerun := 0; rerun < 4; rerun++ {
					r, err := eng.Submit(g)
					if err != nil {
						t.Fatal(err)
					}
					if err := r.Wait(); err != nil {
						t.Fatalf("rerun %d: %v", rerun, err)
					}
					if want == nil {
						want = bits(outs)
						continue
					}
					diffBits(t, fmt.Sprintf("rerun %d", rerun), bits(outs), want)
				}
			})
		}
	}
}
