package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/cholesky"
	"github.com/ndflow/ndflow/internal/algos/fw"
	"github.com/ndflow/ndflow/internal/algos/lcs"
	"github.com/ndflow/ndflow/internal/algos/lu"
	"github.com/ndflow/ndflow/internal/algos/matmul"
	"github.com/ndflow/ndflow/internal/algos/stencil"
	"github.com/ndflow/ndflow/internal/algos/trs"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/matrix"
)

// kind names one algorithm of the paper's suite; the name is also the
// op name in traces and the <name> of algos.<name>_ms.
type kind string

const (
	kMM       kind = "mm"
	kTRS      kind = "trs"
	kCholesky kind = "cholesky"
	kLU       kind = "lu"
	kFW       kind = "fw1d"
	kLCS      kind = "lcs"
	kStencil  kind = "stencil"
)

// spec is one problem size, written n/base in the README.
type spec struct {
	kind    kind
	n, base int
}

func (s spec) String() string { return fmt.Sprintf("%s-%d/%d", s.kind, s.n, s.base) }

// flops is the operation count of the problem from the n³ (or n²)
// formulae, used only for algos.mflops_computed.
func (s spec) flops() float64 {
	n := float64(s.n)
	switch s.kind {
	case kMM:
		return 2 * n * n * n
	case kTRS:
		return n * n * n
	case kCholesky:
		return n * n * n / 3
	case kLU:
		return 2 * n * n * n / 3
	default: // one update per table cell
		return n * n
	}
}

// input is the seeded input of one problem, generated once per process:
// the benchmark's inputs come from -seed, and generating them (FillSPD is
// O(n³)) is the harness's work, not the program's set-up. The matrix
// problems copy these pristine matrices into fresh storage on every
// build; the table problems regenerate their boundary rows from seed,
// which is how their NewInstance is written.
type input struct {
	spec spec
	seed int64
	mats []*matrix.Matrix
	// ref is the bit pattern of every output matrix after the serial
	// elision of a twin instance; every live run is compared against it.
	ref []uint64
}

func newInput(s spec, seed int64) (*input, error) {
	in := &input{spec: s, seed: seed}
	r := rand.New(rand.NewSource(seed))
	sp := matrix.NewSpace()
	n := s.n
	switch s.kind {
	case kMM:
		a, b := matrix.New(sp, n, n), matrix.New(sp, n, n)
		a.FillRandom(r)
		b.FillRandom(r)
		in.mats = []*matrix.Matrix{a, b}
	case kTRS:
		t, b := matrix.New(sp, n, n), matrix.New(sp, n, n)
		t.FillLowerTriangular(r)
		b.FillRandom(r)
		in.mats = []*matrix.Matrix{t, b}
	case kCholesky:
		a := matrix.New(sp, n, n)
		a.FillSPD(r)
		in.mats = []*matrix.Matrix{a}
	case kLU:
		a := matrix.New(sp, n, n)
		a.FillRandom(r)
		for i := 0; i < n; i++ {
			a.Add(i, i, 2)
		}
		in.mats = []*matrix.Matrix{a}
	}
	twin, err := in.build(algos.ND)
	if err != nil {
		return nil, err
	}
	g, err := core.Rewrite(twin.prog)
	if err != nil {
		return nil, err
	}
	if err := exec.RunElision(g); err != nil {
		return nil, fmt.Errorf("%s: serial elision of the twin: %w", s, err)
	}
	if err := twin.numErr(); err != nil {
		return nil, fmt.Errorf("%s: twin: %w", s, err)
	}
	in.ref = twin.bits(nil)
	return in, nil
}

// problem is one built instance: fresh storage, spawn tree, frozen
// program. outs are the matrices the program writes; init holds their
// contents before the first run, so restore makes every run start from
// the same state (and scrubs the idempotent table problems, whose stale
// output would otherwise verify without being recomputed).
type problem struct {
	in   *input
	prog *core.Program
	outs []*matrix.Matrix
	init []*matrix.Matrix
	// numErr reports a numerical failure the strand bodies recorded
	// (singular panel, non-SPD block); nil when the kind has none.
	numErr func() error
}

// build allocates fresh storage, copies the pristine inputs in and
// freezes the spawn tree in the given model.
func (in *input) build(model algos.Model) (*problem, error) {
	s := in.spec
	sp := matrix.NewSpace()
	p := &problem{in: in, numErr: func() error { return nil }}
	var err error
	switch s.kind {
	case kMM:
		a, b, c := in.mats[0].Copy(sp), in.mats[1].Copy(sp), matrix.New(sp, s.n, s.n)
		p.prog, err = matmul.New(model, c, a, b, 1, s.base)
		p.outs = []*matrix.Matrix{c}
	case kTRS:
		t, b := in.mats[0].Copy(sp), in.mats[1].Copy(sp)
		p.prog, err = trs.New(model, t, b, s.base)
		p.outs = []*matrix.Matrix{b}
	case kCholesky:
		a := in.mats[0].Copy(sp)
		var slot *error
		p.prog, slot, err = cholesky.New(model, a, s.base)
		p.outs = []*matrix.Matrix{a}
		p.numErr = func() error { return *slot }
	case kLU:
		a := in.mats[0].Copy(sp)
		var inst *lu.Instance
		if inst, err = lu.NewInstance(sp, a, s.base); err == nil {
			p.prog, err = lu.New(model, inst)
			p.outs = []*matrix.Matrix{inst.A, inst.Piv}
			p.numErr = inst.Err
		}
	case kFW:
		inst := fw.NewInstance(sp, s.n, in.seed)
		p.prog, err = fw.New(model, inst, s.base)
		p.outs = []*matrix.Matrix{inst.Table}
	case kLCS:
		inst := lcs.NewInstance(sp, s.n, 3, in.seed)
		p.prog, err = lcs.New(model, inst, s.base)
		p.outs = []*matrix.Matrix{inst.Table}
	case kStencil:
		inst := stencil.NewInstance(sp, s.n, in.seed)
		p.prog, err = stencil.New(model, inst, s.base)
		p.outs = []*matrix.Matrix{inst.Table}
	default:
		err = fmt.Errorf("unknown problem kind %q", s.kind)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s, err)
	}
	return p, nil
}

// keepInit snapshots the outputs' initial contents so restore can put
// them back. Problems that run once (cold-pipeline) skip it.
func (p *problem) keepInit() {
	p.init = make([]*matrix.Matrix, len(p.outs))
	for i, m := range p.outs {
		p.init[i] = m.Copy(nil)
	}
}

func (p *problem) restore() {
	for i, m := range p.outs {
		m.CopyFrom(p.init[i])
	}
}

// bits appends the exact IEEE-754 patterns of the outputs to dst.
func (p *problem) bits(dst []uint64) []uint64 {
	for _, m := range p.outs {
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				dst = append(dst, math.Float64bits(m.At(i, j)))
			}
		}
	}
	return dst
}

// verify reports whether the outputs are bit-identical to the serial
// elision's and no strand recorded a numerical failure.
func (p *problem) verify() bool {
	if p.numErr() != nil {
		return false
	}
	ref, k := p.in.ref, 0
	for _, m := range p.outs {
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				if k >= len(ref) || math.Float64bits(m.At(i, j)) != ref[k] {
					return false
				}
				k++
			}
		}
	}
	return k == len(ref)
}

// stripBodies makes the program nil-body: the engine then schedules the
// same DAG without executing anything, which isolates internal/exec.
func stripBodies(p *core.Program) {
	for _, l := range p.Leaves {
		l.Run = nil
	}
}

// spanStrands is T∞ counted in strands: the longest chain of firing
// dependencies in the compiled graph, the unit Gu et al.'s O(P·T∞)
// steal bound is stated in.
func spanStrands(eg *core.ExecGraph, deps [][]int32) int {
	depth := make([]int32, eg.NumStrands())
	best := int32(0)
	for _, s := range eg.TopoStrands() {
		d := int32(0)
		for _, u := range deps[s] {
			if depth[u] > d {
				d = depth[u]
			}
		}
		depth[s] = d + 1
		if d+1 > best {
			best = d + 1
		}
	}
	return int(best)
}
