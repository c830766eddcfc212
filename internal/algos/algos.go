// Package algos holds types shared by the algorithm reproductions in its
// subpackages: the programming-model selector and helpers for validating
// divide-and-conquer problem sizes.
package algos

import (
	"fmt"
	"math/bits"
	"strconv"

	"github.com/ndflow/ndflow/internal/core"
)

// Model selects the programming model an algorithm's spawn tree is built in.
type Model int

const (
	// NP is the nested parallel (fork-join) model: only ";" and "‖".
	NP Model = iota
	// ND is the nested dataflow model: ";", "‖" and the fire construct.
	ND
)

func (m Model) String() string {
	switch m {
	case NP:
		return "NP"
	case ND:
		return "ND"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// RulesFor returns the rule set a tree built in the given model is frozen
// with: nd for ND trees, none for NP trees, which have no fire constructs.
func RulesFor(model Model, nd core.RuleSet) core.RuleSet {
	if model == ND {
		return nd
	}
	return nil
}

// CheckPow2 validates a divide-and-conquer problem size: n and base must be
// powers of two with n ≥ base ≥ 1.
func CheckPow2(n, base int) error {
	if base < 1 || base&(base-1) != 0 {
		return fmt.Errorf("base %d must be a positive power of two", base)
	}
	if n < base || n&(n-1) != 0 {
		return fmt.Errorf("size %d must be a power of two ≥ base %d", n, base)
	}
	return nil
}

// Labels holds a builder's base-case strand labels, prefix + block size,
// for every power-of-two size. Builders keep one per strand kind in a
// package-level variable, so a build formats no label per leaf.
type Labels [31]string

// NewLabels builds the label table for the given prefix.
func NewLabels(prefix string) *Labels {
	var l Labels
	for i := range l {
		l[i] = prefix + strconv.Itoa(1<<i)
	}
	return &l
}

// Size returns the label of a block of side n.
func (l *Labels) Size(n int) string {
	if n > 0 && n&(n-1) == 0 && n < 1<<len(l) {
		return l[bits.TrailingZeros(uint(n))]
	}
	return l[0][:len(l[0])-1] + strconv.Itoa(n) // l[0] is prefix + "1"
}
