package dvfs

import (
	"fmt"
	"math"
	"testing"

	"greengpu/internal/units"
)

// TestSanitizeUtil pins the sensor-sanitizing contract every controller
// entry point relies on: NaN and ±Inf read as idle, finite values clamp to
// [0,1], in-range values pass through untouched.
func TestSanitizeUtil(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
		{-0.5, 0},
		{-math.SmallestNonzeroFloat64, 0},
		{0, 0},
		{0.37, 0.37},
		{1, 1},
		{1.0000001, 1},
		{1e300, 1},
	}
	for _, c := range cases {
		if got := sanitizeUtil(c.in); got != c.want {
			t.Errorf("sanitizeUtil(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// refScaler is the scaler as it stood before Step fused the weight update
// with the argmax: every pair is charged through TotalLoss, the WMA round
// runs through a per-expert loss closure, and a separate scan picks the
// highest weight. It is the oracle Step must match bit for bit.
type refScaler struct {
	s       *Scaler // ladders, params and TotalLoss; its own table is unused
	weights []float64

	// Coverage flags for the fixed cases.
	renormalized, subnormal, tiedAtRenorm bool
}

func newRefScaler(core, mem []units.Frequency, p Params) *refScaler {
	s := NewScaler(core, mem, p)
	n, m := s.Levels()
	w := make([]float64, n*m)
	for i := range w {
		w[i] = 1
	}
	return &refScaler{s: s, weights: w}
}

func (r *refScaler) step(uc, um float64) Decision {
	_, m := r.s.Levels()
	r.update(func(k int) float64 { return r.s.TotalLoss(k/m, k%m, uc, um) })
	best := r.best()
	return Decision{CoreLevel: best / m, MemLevel: best % m}
}

// update is wma.Table.Update with its loss closure, renormalizing below
// the same 1e-100 threshold.
func (r *refScaler) update(loss func(i int) float64) {
	oneMinusBeta := 1 - r.s.params.Beta
	max := 0.0
	for i := range r.weights {
		l := loss(i)
		if l < 0 || l > 1 || math.IsNaN(l) {
			panic(fmt.Sprintf("loss for expert %d is %v", i, l))
		}
		w := r.weights[i] * (1 - oneMinusBeta*l)
		r.weights[i] = w
		if w > max {
			max = w
		}
		if w != 0 && w < 0x1p-1022 {
			r.subnormal = true
		}
	}
	if max < 1e-100 {
		r.renormalized = true
		if max <= 0 {
			for i := range r.weights {
				r.weights[i] = 1
			}
			return
		}
		ties := 0
		for _, w := range r.weights {
			if w == max {
				ties++
			}
		}
		r.tiedAtRenorm = r.tiedAtRenorm || ties > 1
		for i := range r.weights {
			r.weights[i] /= max
		}
	}
}

func (r *refScaler) best() int {
	best, bw := 0, r.weights[0]
	for i, w := range r.weights[1:] {
		if w > bw {
			best, bw = i+1, w
		}
	}
	return best
}

// The ladders the differential oracle runs on.
var (
	oracleCore = []units.Frequency{200e6, 300e6, 400e6, 500e6}
	oracleMem  = []units.Frequency{600e6, 800e6, 900e6}
)

// oracleParams maps arbitrary fuzz inputs onto valid parameters, keeping
// the paper's value for any input outside its range.
func oracleParams(alphaCore, alphaMem, phi float64) Params {
	p := DefaultParams()
	for _, f := range []struct {
		dst *float64
		v   float64
	}{{&p.AlphaCore, alphaCore}, {&p.AlphaMem, alphaMem}, {&p.Phi, phi}} {
		if f.v >= 0 && f.v <= 1 {
			*f.dst = f.v
		}
	}
	return p
}

// checkAgainstReference steps a Scaler and the reference side by side,
// holding the first utilization sample for hold1 steps, then the second
// for hold2 steps, and so on, and fails on the first decision or weight bit
// that differs. Held samples take the scaler's loss-vector reuse path, and
// each change of sample its rebuild. It also checks the invariants the fuzz
// target always held: in-range levels and finite, non-negative weights.
// It returns the reference for coverage checks.
func checkAgainstReference(t *testing.T, p Params, uc, um, uc2, um2 float64, hold1, hold2, steps int) *refScaler {
	t.Helper()
	s := NewScaler(oracleCore, oracleMem, p)
	ref := newRefScaler(oracleCore, oracleMem, p)
	for k := 0; k < steps; k++ {
		a, b := uc, um
		if k%(hold1+hold2) >= hold1 {
			a, b = uc2, um2
		}
		d := s.Step(a, b)
		if want := ref.step(a, b); d != want {
			t.Fatalf("step %d Step(%v,%v) = %+v, reference %+v", k, a, b, d, want)
		}
		if d.CoreLevel < 0 || d.CoreLevel >= len(oracleCore) || d.MemLevel < 0 || d.MemLevel >= len(oracleMem) {
			t.Fatalf("step %d Step(%v,%v) = %+v out of range", k, a, b, d)
		}
		for i := range oracleCore {
			for j := range oracleMem {
				w, rw := s.Weight(i, j), ref.weights[i*len(oracleMem)+j]
				if math.Float64bits(w) != math.Float64bits(rw) {
					t.Fatalf("step %d Step(%v,%v): weight(%d,%d) = %v, reference %v", k, a, b, i, j, w, rw)
				}
				if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
					t.Fatalf("step %d Step(%v,%v) left weight(%d,%d) = %v", k, a, b, i, j, w)
				}
			}
		}
	}
	return ref
}

// TestScalerStepMatchesReference runs the differential oracle on fixed
// cases that reach the paths a short fuzz run may not: renormalization,
// subnormal weights, renormalization while the top weight is tied, and
// held samples that reuse the loss vector across a renormalization.
//
// Renormalization divides by the exact maximum, so it can round lower
// weights together but never lifts one to tie the maximum: any w below
// the maximum m satisfies w/m ≤ 1 − 2⁻⁵³ before rounding, and that value
// is representable. A tie at the top after renormalization is therefore
// one that was already there, which the tied case covers; Update still
// rescans after renormalizing so it never depends on this argument.
func TestScalerStepMatchesReference(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name                     string
		alphaCore, alphaMem, phi float64
		uc, um, uc2, um2         float64
		hold1, hold2, steps      int
		renorm, subnormal, tied  bool
	}{
		{name: "paper params", alphaCore: 0.15, alphaMem: 0.02, phi: 0.3,
			uc: 0.62, um: 0.41, uc2: 0.1, um2: 0.93, hold1: 1, hold2: 1, steps: 200},
		{name: "held samples", alphaCore: 0.15, alphaMem: 0.02, phi: 0.3,
			uc: 0.62, um: 0.41, uc2: 0, um2: 0, hold1: 27, hold2: 19, steps: 200},
		{name: "held samples, core utilization changing alone", alphaCore: 0.15, alphaMem: 0.02, phi: 0.3,
			uc: 0.62, um: 0.41, uc2: 0.1, um2: 0.41, hold1: 5, hold2: 3, steps: 200},
		{name: "held samples, memory utilization changing alone", alphaCore: 0.15, alphaMem: 0.02, phi: 0.3,
			uc: 0.62, um: 0.41, uc2: 0.62, um2: 0.93, hold1: 5, hold2: 3, steps: 200},
		{name: "non-finite samples", alphaCore: 0.15, alphaMem: 0.02, phi: 0.3,
			uc: nan, um: inf, uc2: -inf, um2: -3.7, hold1: 1, hold2: 1, steps: 200},
		{name: "renormalization with subnormal weights", alphaCore: 0.5, alphaMem: 0.5, phi: 0.5,
			uc: 0.5, um: 0.25, uc2: 0.5, um2: 0.25, hold1: 1, hold2: 1, steps: 4000,
			renorm: true, subnormal: true},
		{name: "renormalization with a tied top weight", alphaCore: 0.5, alphaMem: 0.5, phi: 1,
			uc: 0.5, um: 0.3, uc2: 0.5, um2: 0.9, hold1: 1, hold2: 1, steps: 4000,
			renorm: true, tied: true},
		{name: "held samples across renormalization", alphaCore: 0.5, alphaMem: 0.5, phi: 0.5,
			uc: 0.5, um: 0.25, uc2: 0.9, um2: 0.1, hold1: 700, hold2: 300, steps: 4000,
			renorm: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := oracleParams(c.alphaCore, c.alphaMem, c.phi)
			ref := checkAgainstReference(t, p, c.uc, c.um, c.uc2, c.um2, c.hold1, c.hold2, c.steps)
			if c.renorm && !ref.renormalized {
				t.Error("case never renormalized")
			}
			if c.subnormal && !ref.subnormal {
				t.Error("case never produced a subnormal weight")
			}
			if c.tied && !ref.tiedAtRenorm {
				t.Error("case never renormalized with a tied top weight")
			}
		})
	}
}

// FuzzScalerStep drives the scaler and the pre-fusion reference with
// arbitrary (including non-finite) utilizations and parameters for up to
// 4,096 steps, each sample held for a fuzzed run of 1 to 256 steps,
// requiring the same decision and bit-identical weights after every step,
// in-range levels, and a finite weight table.
func FuzzScalerStep(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add(0.5, 0.5, 0.5, 0.5, 0.15, 0.02, 0.3, uint8(0), uint8(0), uint16(64))
	f.Add(math.NaN(), math.Inf(1), math.Inf(-1), -3.7, 0.15, 0.02, 0.3, uint8(0), uint8(0), uint16(64))
	f.Add(1e308, -1e308, -0.0, 2.0, 0.15, 0.02, 0.3, uint8(0), uint8(0), uint16(64))
	f.Add(0.5, 0.25, 0.5, 0.25, 0.5, 0.5, 0.5, uint8(0), uint8(0), uint16(4000))
	f.Add(0.5, 0.3, 0.5, 0.9, 0.5, 0.5, 1.0, uint8(0), uint8(0), uint16(4000))
	// Reuse, change, reuse: a holistic run's busy phase and idle gap.
	f.Add(0.6293204506666666, 0.4208979153333333, 0.0, 0.0, 0.15, 0.02, 0.3, uint8(26), uint8(18), uint16(400))
	// Samples that differ only in the sign of zero, which sanitizing
	// keeps, and only as NaN against 0, which it does not.
	f.Add(negZero, 0.4, 0.0, 0.4, 0.15, 0.02, 0.3, uint8(3), uint8(2), uint16(64))
	f.Add(0.7, negZero, 0.7, 0.0, 0.0, 1.0, 0.0, uint8(1), uint8(4), uint16(64))
	f.Add(math.NaN(), 0.3, 0.0, 0.3, 0.15, 0.02, 0.3, uint8(2), uint8(3), uint16(64))
	f.Add(0.8, math.NaN(), 0.8, 0.0, 0.15, 0.02, 0.3, uint8(4), uint8(1), uint16(64))
	f.Fuzz(func(t *testing.T, uc, um, uc2, um2, alphaCore, alphaMem, phi float64, hold1, hold2 uint8, n uint16) {
		checkAgainstReference(t, oracleParams(alphaCore, alphaMem, phi), uc, um, uc2, um2,
			int(hold1)+1, int(hold2)+1, int(n%4096)+1)
	})
}

// FuzzGuardSample asserts hold-last-good always yields finite in-range
// utilizations no matter what the sensor delivers.
func FuzzGuardSample(f *testing.F) {
	f.Add(0.5, 0.5)
	f.Add(math.NaN(), 0.2)
	f.Add(math.Inf(1), math.Inf(-1))
	g := NewGuard(Decision{CoreLevel: 3, MemLevel: 2}, Decision{})
	f.Fuzz(func(t *testing.T, uc, um float64) {
		guc, gum, _ := g.Sample(uc, um)
		if math.IsNaN(guc) || math.IsInf(guc, 0) || math.IsNaN(gum) || math.IsInf(gum, 0) {
			t.Fatalf("Sample(%v,%v) delivered non-finite (%v,%v)", uc, um, guc, gum)
		}
	})
}
