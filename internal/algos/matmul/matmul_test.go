package matmul

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/algotest"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/matrix"
)

func factory(n, base int, sign float64) algotest.Factory {
	return func(model algos.Model) (*core.Program, func() error, error) {
		r := rand.New(rand.NewSource(42))
		s := matrix.NewSpace()
		a, b, c := matrix.New(s, n, n), matrix.New(s, n, n), matrix.New(s, n, n)
		a.FillRandom(r)
		b.FillRandom(r)
		c.FillRandom(r)
		want := c.Copy(nil)
		Serial(want, a, b, sign)
		prog, err := New(model, c, a, b, sign, base)
		if err != nil {
			return nil, nil, err
		}
		check := func() error {
			if d := matrix.MaxAbsDiff(c, want); d > 1e-9 {
				return fmt.Errorf("result differs from serial reference by %g", d)
			}
			return nil
		}
		return prog, check, nil
	}
}

func TestSuiteSmall(t *testing.T) {
	algotest.RunSuite(t, factory(8, 2, 1))
}

func TestSuiteDeeper(t *testing.T) {
	algotest.RunSuite(t, factory(16, 2, -1))
}

func TestSuiteBaseEqualsN(t *testing.T) {
	algotest.RunSuite(t, factory(4, 4, 1))
}

func TestSpanRecurrence(t *testing.T) {
	// The two-group recursion serializes the two updates of each C
	// quadrant: T∞(n) = 2·T∞(n/2) + O(1) in both models, so doubling n
	// should roughly double the span. Verify growth factor ≈ 2 in ND.
	spans := map[int]int64{}
	for _, n := range []int{4, 8, 16} {
		f := factory(n, 2, 1)
		prog, _, err := f(algos.ND)
		if err != nil {
			t.Fatal(err)
		}
		g := core.MustRewrite(prog)
		spans[n] = g.Span()
	}
	r1 := float64(spans[8]) / float64(spans[4])
	r2 := float64(spans[16]) / float64(spans[8])
	if r1 < 1.8 || r1 > 2.3 || r2 < 1.8 || r2 > 2.3 {
		t.Errorf("span growth factors %.2f, %.2f; want ≈ 2 (linear span)", r1, r2)
	}
}

func TestNDArrowCount(t *testing.T) {
	// In the ND tree, each accumulation chain per C sub-block is a chain
	// of solid arrows; the DRS must not materialize all-to-all arrows.
	f := factory(8, 2, 1)
	prog, _, err := f(algos.ND)
	if err != nil {
		t.Fatal(err)
	}
	g := core.MustRewrite(prog)
	leaves := len(prog.Leaves)
	if arrows := len(g.SortedArrows()); arrows >= leaves*leaves/4 {
		t.Errorf("DRS materialized %d arrows for %d leaves; expected sparse rewriting", arrows, leaves)
	}
}

func TestRulesValidate(t *testing.T) {
	if err := Rules().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsBadSizes(t *testing.T) {
	s := matrix.NewSpace()
	a := matrix.New(s, 6, 6)
	if _, err := New(algos.ND, a, a.T(), a.T(), 1, 2); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
}
