// Package wma implements the multiplicative-weights expert table of the
// Weighted Majority Algorithm (Littlestone & Warmuth, Inf. Comput. 108,
// 1994), the meta-learning framework GreenGPU's frequency-scaling tier is
// built on (paper §V-A, Algorithm 1).
//
// A Table maintains one weight per expert (in GreenGPU, one per
// core×memory frequency pair). Each round, every expert suffers a loss in
// [0,1] and its weight is multiplied by (1 − (1−β)·loss); the expert with
// the highest weight is then enforced. β ∈ (0,1) trades responsiveness for
// noise immunity: the paper selects β = 0.2.
//
// Because weights decay multiplicatively and never grow, a long run would
// underflow float64. The table therefore renormalizes automatically
// (dividing all weights by the maximum) whenever the maximum drops below a
// threshold; renormalization preserves the argmax and, up to rounding, all
// weight ratios, so it is unobservable to the algorithm.
package wma

import "fmt"

// renormBelow triggers automatic renormalization when the maximum weight
// decays beneath it. Any value far above the denormal range works.
const renormBelow = 1e-100

// Table is a WMA expert table. Weights start equal (at 1), expressing no
// initial preference among experts, per the paper's initialization.
type Table struct {
	weights []float64
	beta    float64
	rounds  int
}

// New creates a table of n experts with update parameter beta.
// It panics unless n > 0 and 0 < beta < 1.
func New(n int, beta float64) *Table {
	if n <= 0 {
		panic(fmt.Sprintf("wma: need at least one expert, got %d", n))
	}
	if beta <= 0 || beta >= 1 {
		panic(fmt.Sprintf("wma: beta must be in (0,1), got %v", beta))
	}
	t := &Table{weights: make([]float64, n), beta: beta}
	t.Reset()
	return t
}

// Len returns the number of experts.
func (t *Table) Len() int { return len(t.weights) }

// Beta returns the update parameter.
func (t *Table) Beta() float64 { return t.beta }

// Rounds returns the number of Update calls since the last Reset.
func (t *Table) Rounds() int { return t.rounds }

// Reset restores all weights to 1 and zeroes the round counter.
func (t *Table) Reset() {
	for i := range t.weights {
		t.weights[i] = 1
	}
	t.rounds = 0
}

// Weight returns expert i's current weight.
func (t *Table) Weight(i int) float64 { return t.weights[i] }

// Weights returns a copy of the full weight vector.
func (t *Table) Weights() []float64 {
	out := make([]float64, len(t.weights))
	copy(out, t.weights)
	return out
}

// Update applies one round of multiplicative updates and returns the index
// of the highest-weighted expert afterwards (as Best would). losses[i] is
// expert i's loss for the round and must be in [0,1]; values outside that
// range panic, since they would let weights grow or go negative and break
// the WMA regret guarantee. len(losses) must equal Len.
//
// The argmax is tracked during the update pass itself. Renormalization
// divides every weight by the maximum; the maximum stays on top, but
// rounding can merge lower weights, so when it fires Update takes the
// argmax from a fresh scan rather than relying on the rounding argument.
func (t *Table) Update(losses []float64) int {
	if len(losses) != len(t.weights) {
		panic(fmt.Sprintf("wma: %d losses for %d experts", len(losses), len(t.weights)))
	}
	oneMinusBeta := 1 - t.beta
	ws := t.weights[:len(losses)] // same length; lets the compiler drop bounds checks
	best, max := 0, 0.0           // weights are always > 0, so 0 seeds the max scan safely
	for i, l := range losses {
		if !(l >= 0 && l <= 1) { // also catches NaN
			panic(fmt.Sprintf("wma: loss for expert %d is %v, must be in [0,1]", i, l))
		}
		w := ws[i] * (1 - oneMinusBeta*l)
		ws[i] = w
		if w > max {
			best, max = i, w
		}
	}
	t.rounds++
	if max < renormBelow {
		t.Renormalize()
		best = t.Best()
	}
	return best
}

// Best returns the index of the highest-weighted expert. Ties break toward
// the lowest index, which for GreenGPU's level ordering means the lowest
// frequency pair — the energy-conservative choice.
func (t *Table) Best() int {
	best, bw := 0, t.weights[0]
	for i, w := range t.weights[1:] {
		if w > bw {
			best, bw = i+1, w
		}
	}
	return best
}

// Renormalize divides all weights by the current maximum, restoring the
// maximum to 1. Argmax and weight ratios are preserved exactly (up to
// floating-point rounding).
func (t *Table) Renormalize() {
	m := t.max()
	if m <= 0 {
		// All experts annihilated (every loss was 1 with beta→0);
		// restart from indifference rather than propagate zeros.
		t.Reset()
		return
	}
	for i := range t.weights {
		t.weights[i] /= m
	}
}

func (t *Table) max() float64 {
	m := t.weights[0]
	for _, w := range t.weights[1:] {
		if w > m {
			m = w
		}
	}
	return m
}
