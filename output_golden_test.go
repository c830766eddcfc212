// Output golden test: the bit pattern of every output matrix after the
// serial elision is hashed and pinned, so work on the base-case kernels
// and leaf bodies (row slices, register blocking, integer MixOp) cannot
// change a single mantissa bit of any result. The hashes were recorded
// at commit bca655d, before the kernels were touched. The same bodies
// must not allocate (TestLeafBodiesDoNotAllocate).
package ndflow_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/cholesky"
	"github.com/ndflow/ndflow/internal/algos/fw"
	"github.com/ndflow/ndflow/internal/algos/lcs"
	"github.com/ndflow/ndflow/internal/algos/lu"
	"github.com/ndflow/ndflow/internal/algos/matmul"
	"github.com/ndflow/ndflow/internal/algos/trs"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/matrix"
)

// liveSpecs are the six problems of the benchmark's live-kernels
// workload (ND model) at -seed 1, inputs generated and copied the way
// bench/problems.go does: problem i draws from rand.NewSource(1 + i).
func liveSpecs() []struct {
	name  string
	build func() (*core.Program, []*matrix.Matrix, error)
} {
	// Pristine inputs live in a throw-away space; every build copies
	// them into the program's own, as in.build does.
	src := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	sq := func(n int) *matrix.Matrix { return matrix.New(matrix.NewSpace(), n, n) }
	return []struct {
		name  string
		build func() (*core.Program, []*matrix.Matrix, error)
	}{
		{"mm-128/16", func() (*core.Program, []*matrix.Matrix, error) {
			r, a, b := src(1), sq(128), sq(128)
			a.FillRandom(r)
			b.FillRandom(r)
			s := matrix.NewSpace()
			a, b = a.Copy(s), b.Copy(s)
			c := matrix.New(s, 128, 128)
			p, err := matmul.New(algos.ND, c, a, b, 1, 16)
			return p, []*matrix.Matrix{c}, err
		}},
		{"trs-128/16", func() (*core.Program, []*matrix.Matrix, error) {
			r, t, b := src(2), sq(128), sq(128)
			t.FillLowerTriangular(r)
			b.FillRandom(r)
			s := matrix.NewSpace()
			t, b = t.Copy(s), b.Copy(s)
			p, err := trs.New(algos.ND, t, b, 16)
			return p, []*matrix.Matrix{b}, err
		}},
		{"cholesky-256/32", func() (*core.Program, []*matrix.Matrix, error) {
			a := sq(256)
			a.FillSPD(src(3))
			a = a.Copy(matrix.NewSpace())
			p, _, err := cholesky.New(algos.ND, a, 32)
			return p, []*matrix.Matrix{a}, err
		}},
		{"lu-128/16", func() (*core.Program, []*matrix.Matrix, error) {
			a := sq(128)
			a.FillRandom(src(4))
			for i := 0; i < 128; i++ {
				a.Add(i, i, 2)
			}
			s := matrix.NewSpace()
			inst, err := lu.NewInstance(s, a.Copy(s), 16)
			if err != nil {
				return nil, nil, err
			}
			p, err := lu.New(algos.ND, inst)
			return p, []*matrix.Matrix{inst.A, inst.Piv}, err
		}},
		{"fw1d-512/16", func() (*core.Program, []*matrix.Matrix, error) {
			inst := fw.NewInstance(matrix.NewSpace(), 512, 5)
			p, err := fw.New(algos.ND, inst, 16)
			return p, []*matrix.Matrix{inst.Table}, err
		}},
		{"lcs-512/16", func() (*core.Program, []*matrix.Matrix, error) {
			inst := lcs.NewInstance(matrix.NewSpace(), 512, 3, 6)
			p, err := lcs.New(algos.ND, inst, 16)
			return p, []*matrix.Matrix{inst.Table}, err
		}},
	}
}

// outputHash folds the shape and the exact IEEE-754 pattern of every
// output matrix into one FNV-1a value.
func outputHash(outs []*matrix.Matrix) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, m := range outs {
		put(uint64(m.Rows()))
		put(uint64(m.Cols()))
		for _, w := range bits([]*matrix.Matrix{m}) {
			put(w)
		}
	}
	return h.Sum64()
}

var goldenOutput = map[string]uint64{
	"MM/NP":           0xcfad477d11e6ddc6,
	"MM/ND":           0xcfad477d11e6ddc6,
	"TRS/NP":          0x15d5463e5697bf06,
	"TRS/ND":          0x15d5463e5697bf06,
	"Cholesky/NP":     0x8694eb2f5c4b5a5c,
	"Cholesky/ND":     0x8694eb2f5c4b5a5c,
	"LU/NP":           0x38dcfeee43c0c155,
	"LU/ND":           0x38dcfeee43c0c155,
	"FW-1D/NP":        0x17aec5fc2af08df4,
	"FW-1D/ND":        0x17aec5fc2af08df4,
	"FW-2D/NP":        0x6e02a686f245edd3,
	"LCS/NP":          0xff5b65761592effc,
	"LCS/ND":          0xff5b65761592effc,
	"Stencil/NP":      0x9b363b67620c58fd,
	"Stencil/ND":      0x9b363b67620c58fd,
	"mm-128/16":       0xc84841d1e62327a6,
	"trs-128/16":      0x46e12c822a302eac,
	"cholesky-256/32": 0xeb82df2c5e8a3944,
	"lu-128/16":       0xc1e9e9064585e441,
	"fw1d-512/16":     0x55ad954e3ec0f4bd,
	"lcs-512/16":      0x6cf7843185ed9445,
}

func TestOutputGolden(t *testing.T) {
	check := func(name string, g *core.Graph, outs []*matrix.Matrix) {
		t.Helper()
		if err := exec.RunElision(g); err != nil {
			t.Fatalf("%s: elision: %v", name, err)
		}
		got := outputHash(outs)
		if want, ok := goldenOutput[name]; !ok || got != want {
			t.Errorf("%q: %#x, // recorded %#x", name, got, want)
		}
	}
	for _, c := range diffCases() {
		for _, model := range c.models {
			g, outs, err := c.build(model)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, model, err)
			}
			check(fmt.Sprintf("%s/%s", c.name, model), g, outs)
		}
	}
	for _, s := range liveSpecs() {
		p, outs, err := s.build()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		g, err := core.Rewrite(p)
		if err != nil {
			t.Fatalf("%s: rewrite: %v", s.name, err)
		}
		check(s.name, g, outs)
	}
}

// TestLeafBodiesDoNotAllocate executes every builder's ND program in
// serial-elision order and requires that no strand body allocates: the
// base cases are where a run's work is, and a run must not pay the
// allocator for it (LU's panels did, one pivot slice each). Bodies compute
// in place, so each is measured on its one execution with true inputs,
// the way testing.AllocsPerRun measures (one P, malloc counts read around
// the call) but without its warm-up and repeats.
func TestLeafBodiesDoNotAllocate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for _, c := range diffCases() {
		model := c.models[len(c.models)-1]
		g, outs, err := c.build(model)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, leaf := range g.P.Leaves {
			runtime.ReadMemStats(&before)
			leaf.Run()
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Errorf("%s/%s leaf %q: %d allocations in one execution, want 0", c.name, model, leaf.Label, n)
			}
		}
		// The leaves ran in elision order, so the outputs are the golden ones.
		name := fmt.Sprintf("%s/%s", c.name, model)
		if got := outputHash(outs); got != goldenOutput[name] {
			t.Errorf("%s: outputs %#x after the measured run, golden %#x", name, got, goldenOutput[name])
		}
	}
}
