// Structural golden test: everything a scheduler can observe of a compiled
// program — the deduplicated arrow set, the topological orders, every wake
// row with its weights and needs, the initially ready strands, every task
// size — is hashed
// and pinned, so work on the cold path (footprint algebra, DRS, CSR
// compile, wake-graph collapse) cannot reorder or drop anything. The
// hashes were recorded at commit 2d35dd7, before the cold-path diet.
package ndflow_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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
	"github.com/ndflow/ndflow/internal/matrix"
)

// coldSpecs are the seven problems of the benchmark's cold-pipeline
// workload (ND model), built the way bench/problems.go builds them.
// Structure depends only on the sizes, so the inputs are arbitrary; LU's
// column chunks keep a "*"-pedigree rule in the set.
func coldSpecs() []struct {
	name  string
	build func() (*core.Program, error)
} {
	sq := func(s *matrix.Space, n int) *matrix.Matrix { return matrix.New(s, n, n) }
	return []struct {
		name  string
		build func() (*core.Program, error)
	}{
		{"mm-16/4", func() (*core.Program, error) {
			s := matrix.NewSpace()
			a, b, c := sq(s, 16), sq(s, 16), sq(s, 16)
			return matmul.New(algos.ND, c, a, b, 1, 4)
		}},
		{"trs-32/4", func() (*core.Program, error) {
			s := matrix.NewSpace()
			return trs.New(algos.ND, sq(s, 32), sq(s, 32), 4)
		}},
		{"cholesky-32/4", func() (*core.Program, error) {
			p, _, err := cholesky.New(algos.ND, sq(matrix.NewSpace(), 32), 4)
			return p, err
		}},
		{"lu-32/4", func() (*core.Program, error) {
			s := matrix.NewSpace()
			a := sq(s, 32)
			a.FillRandom(rand.New(rand.NewSource(1)))
			inst, err := lu.NewInstance(s, a, 4)
			if err != nil {
				return nil, err
			}
			return lu.New(algos.ND, inst)
		}},
		{"fw1d-64/4", func() (*core.Program, error) {
			return fw.New(algos.ND, fw.NewInstance(matrix.NewSpace(), 64, 1), 4)
		}},
		{"lcs-64/4", func() (*core.Program, error) {
			return lcs.New(algos.ND, lcs.NewInstance(matrix.NewSpace(), 64, 3, 1), 4)
		}},
		{"stencil-64/4", func() (*core.Program, error) {
			return stencil.New(algos.ND, stencil.NewInstance(matrix.NewSpace(), 64, 1), 4)
		}},
	}
}

// structureHash folds everything observable of the compiled graph into
// one FNV-1a value; section lengths are hashed too, so moving an element
// from one section to the next changes the result.
func structureHash(g *core.Graph) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	section := func(vs []int32) {
		put(int32(len(vs)))
		for _, v := range vs {
			put(v)
		}
	}
	arrows := g.SortedArrows()
	put(int32(len(arrows)))
	for _, a := range arrows {
		put(int32(a.From.ID))
		put(int32(a.To.ID))
	}
	eg := g.Exec()
	section(eg.Topo())
	section(eg.TopoStrands())
	w := eg.Wake()
	put(int32(w.NumStrands()))
	put(int32(w.NumRelays()))
	for i := int32(0); i < int32(w.NumCounters()); i++ {
		targets, weights := w.Row(i)
		section(targets)
		section(weights)
		put(w.Need(i))
	}
	section(w.InitialReady())
	for _, n := range g.P.Nodes {
		// s(t), which the simulated space-bounded scheduler anchors by:
		// the footprint unions must come out word for word the same.
		put(int32(n.Footprint().Words()))
	}
	return h.Sum64()
}

var goldenStructure = map[string]uint64{
	"MM/NP":         0x82161f8c97cba466,
	"MM/ND":         0x97343eac3ec5c77f,
	"TRS/NP":        0xf4e82e2e3de7dcbf,
	"TRS/ND":        0xfbbed1dc5c00822,
	"Cholesky/NP":   0xc282f01be419cfd6,
	"Cholesky/ND":   0xa5e17e3347b6d8a5,
	"LU/NP":         0xede4013cda652325,
	"LU/ND":         0x17be696c8031458f,
	"FW-1D/NP":      0x4e1ede934cd73e88,
	"FW-1D/ND":      0x45fcee1f241db507,
	"FW-2D/NP":      0xee0f80e8346b67fd,
	"LCS/NP":        0xc3332f0171cd9d2a,
	"LCS/ND":        0x5b466b3febcb9738,
	"Stencil/NP":    0xd14e351a7ce753e6,
	"Stencil/ND":    0xf7e8aa667a8a9e8d,
	"mm-16/4":       0x97343eac3ec5c77f,
	"trs-32/4":      0x426d27bb65e74936,
	"cholesky-32/4": 0x46d8618219ebc5c8,
	"lu-32/4":       0xc68b239561619148,
	"fw1d-64/4":     0xf48815aa41425f67,
	"lcs-64/4":      0x9d8fc6f182744fc1,
	"stencil-64/4":  0xe8a355e7676604e6,
}

func TestStructureGolden(t *testing.T) {
	check := func(name string, g *core.Graph) {
		t.Helper()
		got := structureHash(g)
		if want, ok := goldenStructure[name]; !ok || got != want {
			t.Errorf("%q: %#x, // recorded %#x", name, got, want)
		}
	}
	for _, c := range diffCases() {
		for _, model := range c.models {
			g, _, err := c.build(model)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, model, err)
			}
			check(fmt.Sprintf("%s/%s", c.name, model), g)
		}
	}
	for _, s := range coldSpecs() {
		p, err := s.build()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		g, err := core.Rewrite(p)
		if err != nil {
			t.Fatalf("%s: rewrite: %v", s.name, err)
		}
		check(s.name, g)
	}
}
