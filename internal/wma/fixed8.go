package wma

import (
	"fmt"
	"math"
)

// Fixed8Table is the on-chip variant of the WMA expert table sketched in
// the paper's §VI hardware-implementation discussion: weights are stored
// in 8 bits each (the 6×6 testbed table fits in 36 bytes), and the
// multiplicative update reduces to integer multiply-shift operations the
// paper argues synthesize to a small shift-add unit. Loss values are
// quantized to 8 fractional bits on the way in.
//
// The paper's claim — "8-bit precision is accurate enough for the purpose
// of picking up the largest weight" — is validated against the float
// Table in this package's tests and in the experiments harness.
type Fixed8Table struct {
	weights []uint16 // Q8.8 accumulators; reported weights are the top 8 bits
	beta8   uint32   // β in Q0.8
	rounds  int
}

// fixed8One is 1.0 in the table's Q8.8 representation.
const fixed8One = 1 << 8

// NewFixed8 creates a fixed-point table of n experts with update parameter
// beta (quantized to Q0.8). It panics unless n > 0 and 0 < beta < 1.
func NewFixed8(n int, beta float64) *Fixed8Table {
	if n <= 0 {
		panic(fmt.Sprintf("wma: need at least one expert, got %d", n))
	}
	if beta <= 0 || beta >= 1 {
		panic(fmt.Sprintf("wma: beta must be in (0,1), got %v", beta))
	}
	t := &Fixed8Table{
		weights: make([]uint16, n),
		beta8:   uint32(math.Round(beta * 256)),
	}
	t.Reset()
	return t
}

// Len returns the number of experts.
func (t *Fixed8Table) Len() int { return len(t.weights) }

// Rounds returns the number of Update calls since the last Reset.
func (t *Fixed8Table) Rounds() int { return t.rounds }

// Reset restores all weights to 1.0.
func (t *Fixed8Table) Reset() {
	for i := range t.weights {
		t.weights[i] = fixed8One
	}
	t.rounds = 0
}

// Weight returns expert i's weight as a float in [0, 1].
func (t *Fixed8Table) Weight(i int) float64 {
	return float64(t.weights[i]) / fixed8One
}

// Update applies one round: every expert's weight is multiplied by
// (1 − (1−β)·losses[i]) using Q8.8 integer arithmetic. It returns the
// index of the highest-weighted expert afterwards, as Best would. Loss
// values outside [0,1] (or NaN) panic, as in the float table, and
// len(losses) must equal Len.
func (t *Fixed8Table) Update(losses []float64) int {
	if len(losses) != len(t.weights) {
		panic(fmt.Sprintf("wma: %d losses for %d experts", len(losses), len(t.weights)))
	}
	oneMinusBeta := uint32(256) - t.beta8 // Q0.8
	for i, l := range losses {
		if l < 0 || l > 1 || math.IsNaN(l) {
			panic(fmt.Sprintf("wma: loss for expert %d is %v, must be in [0,1]", i, l))
		}
		l8 := uint32(math.Round(l * 256)) // Q0.8
		// factor = 1 − (1−β)·loss, in Q0.8: 256 − ((1−β)·l >> 8).
		factor := uint32(256) - ((oneMinusBeta * l8) >> 8)
		t.weights[i] = uint16((uint32(t.weights[i]) * factor) >> 8)
	}
	t.rounds++
	// Renormalize when precision is running out: scale the whole table
	// so the max returns to 1.0 (a shift-free integer multiply).
	if m := t.max(); m > 0 && m < fixed8One/4 {
		scale := uint32(fixed8One) * fixed8One / uint32(m) // Q8.8 multiplier
		for i := range t.weights {
			v := (uint32(t.weights[i]) * scale) >> 8
			if v > math.MaxUint16 {
				v = math.MaxUint16
			}
			t.weights[i] = uint16(v)
		}
	} else if m == 0 {
		t.Reset()
	}
	return t.Best()
}

// Best returns the index of the highest-weighted expert, lowest index on
// ties (the energy-conservative choice, as in the float table).
func (t *Fixed8Table) Best() int {
	best, bw := 0, t.weights[0]
	for i, w := range t.weights[1:] {
		if w > bw {
			best, bw = i+1, w
		}
	}
	return best
}

func (t *Fixed8Table) max() uint16 {
	m := t.weights[0]
	for _, w := range t.weights[1:] {
		if w > m {
			m = w
		}
	}
	return m
}

// SizeBytes returns the storage footprint of the weight table — 2 bytes
// per expert in this Q8.8 software model (the paper's sketch stores 1;
// the extra byte is the renormalization guard band).
func (t *Fixed8Table) SizeBytes() int { return 2 * len(t.weights) }
