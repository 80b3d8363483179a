// Package predict fits an analytic cross-frequency model to a handful of
// simulated anchor points and evaluates every remaining (core, memory)
// frequency pair of a DVFS ladder in closed form — turning ladder² sweet-spot
// searches from O(ladder²) simulations into O(anchors) simulations plus
// O(ladder²) arithmetic.
//
// The model follows the crossover/pipeline estimators of "GPGPU Performance
// Estimation with Core and Memory Frequency Scaling" (arXiv 1701.05308) and
// "Modeling and Chasing the Energy-Efficiency Sweet Spots in Modern GPUs"
// (arXiv 2607.00819), specialized to this simulator's timing and power
// equations (see docs/MODEL.md):
//
//	T̂(fc, fm) = t0 + tc·(Fc/fc) + tm·(Fm/fm)
//	Ê(fc, fm) = (e0 + e1·(fc/Fc) + e2·(fm/Fm))·T̂(fc, fm) + e3
//
// where Fc, Fm are the peak frequencies. Runtime is linear in the inverse
// frequency ratios because each kernel phase's busy time scales as 1/f in
// its own domain; the only model error is phase dominance crossing over
// between anchors (the max+γ·min combine switching which domain bounds a
// phase). Energy is exactly affine in (fc·T, fm·T, T) under the simulator's
// power model — busy time × frequency ratio is frequency-invariant — so the
// energy residual inherits the runtime residual and nothing else.
//
// Both fits are ordinary least squares over the anchors, solved by normal
// equations with partially pivoted Gaussian elimination. Degenerate anchor
// sets (collinear, too few, non-finite) return ErrDegenerate; searches fall
// back to exhaustive evaluation rather than trusting an unfittable model.
package predict

import (
	"errors"
	"fmt"
	"math"
	"time"

	"greengpu/internal/telemetry"
	"greengpu/internal/units"
)

// Package metrics (see docs/OBSERVABILITY.md). No-ops unless telemetry is
// enabled.
var (
	metricFits = telemetry.NewCounter(telemetry.MetricPredictFits,
		"Analytic cross-frequency models fitted from anchor points.")
	metricPoints = telemetry.NewCounter(telemetry.MetricPredictPoints,
		"Ladder points evaluated in closed form by a fitted model.")
	metricFullEvals = telemetry.NewCounter(telemetry.MetricPredictFullEvals,
		"Full point evaluations requested by predictor searches (anchors, verification, exhaustive fallback).")
	metricFallbacks = telemetry.NewCounter(telemetry.MetricPredictFallbacks,
		"Predictor searches that fell back to exhaustive evaluation on a degenerate fit.")
)

// ErrDegenerate reports an anchor set the model cannot be fitted from:
// fewer than MinAnchors distinct points, anchors that do not span both
// frequency domains, or non-finite measurements.
var ErrDegenerate = errors.New("predict: degenerate anchor set")

// MinAnchors is the smallest anchor set the fit accepts: the energy
// regression has three coefficients plus an offset, so four genuinely
// distinct anchors are the floor (Anchors places five).
const MinAnchors = 4

// Sample is one fully evaluated ladder point: the measured runtime and
// total energy at core level Core and memory level Mem of the ladder the
// model is being fitted over.
type Sample struct {
	Core, Mem int
	Time      time.Duration
	Energy    units.Energy
}

// Model is a fitted cross-frequency predictor over one (core, memory)
// frequency ladder. The zero value is not usable; obtain models from Fit.
type Model struct {
	// xc[i] = Fc/fc(i), ym[j] = Fm/fm(j): the inverse frequency ratios the
	// runtime model is linear in. fcR/fmR are the direct ratios feeding
	// the energy model.
	xc, ym   []float64
	fcR, fmR []float64
	// t: runtime coefficients [t0, tc, tm].
	t [3]float64
	// e: energy coefficients [e0, e1, e2, e3] for
	// Ê = (e0 + e1·fcR + e2·fmR)·T̂ + e3.
	e [4]float64
}

// newModel validates the ladders and builds their ratio tables.
func newModel(coreFreqs, memFreqs []units.Frequency) (*Model, error) {
	if len(coreFreqs) == 0 || len(memFreqs) == 0 {
		return nil, fmt.Errorf("predict: empty frequency ladder")
	}
	m := &Model{
		xc:  make([]float64, len(coreFreqs)),
		ym:  make([]float64, len(memFreqs)),
		fcR: make([]float64, len(coreFreqs)),
		fmR: make([]float64, len(memFreqs)),
	}
	fcPeak := float64(coreFreqs[len(coreFreqs)-1])
	fmPeak := float64(memFreqs[len(memFreqs)-1])
	if fcPeak <= 0 || fmPeak <= 0 {
		return nil, fmt.Errorf("predict: non-positive peak frequency")
	}
	for i, f := range coreFreqs {
		if f <= 0 {
			return nil, fmt.Errorf("predict: non-positive core frequency at level %d", i)
		}
		m.fcR[i] = float64(f) / fcPeak
		m.xc[i] = fcPeak / float64(f)
	}
	for j, f := range memFreqs {
		if f <= 0 {
			return nil, fmt.Errorf("predict: non-positive memory frequency at level %d", j)
		}
		m.fmR[j] = float64(f) / fmPeak
		m.ym[j] = fmPeak / float64(f)
	}
	return m, nil
}

// Fit performs both least-squares regressions over the anchors and returns
// the fitted model. The frequency slices are the full ladders (ascending,
// peak last, as device configurations order them); anchor Core/Mem values
// index them. Fit returns ErrDegenerate when the anchors cannot determine
// the coefficients, and an ordinary error on out-of-range indices.
func Fit(coreFreqs, memFreqs []units.Frequency, anchors []Sample) (*Model, error) {
	m, err := newModel(coreFreqs, memFreqs)
	if err != nil {
		return nil, err
	}

	distinct := map[[2]int]bool{}
	for _, a := range anchors {
		if a.Core < 0 || a.Core >= len(coreFreqs) || a.Mem < 0 || a.Mem >= len(memFreqs) {
			return nil, fmt.Errorf("predict: anchor (%d,%d) outside %dx%d ladder",
				a.Core, a.Mem, len(coreFreqs), len(memFreqs))
		}
		t, e := a.Time.Seconds(), a.Energy.Joules()
		if math.IsNaN(t) || math.IsInf(t, 0) || math.IsNaN(e) || math.IsInf(e, 0) {
			return nil, ErrDegenerate
		}
		distinct[[2]int{a.Core, a.Mem}] = true
	}
	if len(distinct) < MinAnchors {
		return nil, ErrDegenerate
	}

	// Runtime fit: T = t0 + tc·x + tm·y.
	rows := make([][]float64, len(anchors))
	ys := make([]float64, len(anchors))
	for i, a := range anchors {
		rows[i] = []float64{1, m.xc[a.Core], m.ym[a.Mem]}
		ys[i] = a.Time.Seconds()
	}
	tc, err := leastSquares(rows, ys)
	if err != nil {
		return nil, err
	}
	copy(m.t[:], tc)

	// Energy fit: E = e0·T + e1·fcR·T + e2·fmR·T + e3, regressed against
	// the measured anchor times (the best estimate of T available).
	for i, a := range anchors {
		t := a.Time.Seconds()
		rows[i] = []float64{t, m.fcR[a.Core] * t, m.fmR[a.Mem] * t, 1}
		ys[i] = a.Energy.Joules()
	}
	ec, err := leastSquares(rows, ys)
	if err != nil {
		return nil, err
	}
	copy(m.e[:], ec)

	// The magnitude bound rejects near-singular systems whose huge (but
	// finite) coefficients would overflow to Inf when combined at
	// prediction time.
	for _, cs := range [][]float64{m.t[:], m.e[:]} {
		for _, c := range cs {
			if math.IsNaN(c) || math.Abs(c) > 1e150 {
				return nil, ErrDegenerate
			}
		}
	}
	metricFits.Inc()
	return m, nil
}

// TimeSeconds predicts the runtime at ladder point (core, mem) in seconds.
func (m *Model) TimeSeconds(core, mem int) float64 {
	metricPoints.Inc()
	return m.t[0] + m.t[1]*m.xc[core] + m.t[2]*m.ym[mem]
}

// Time predicts the runtime at ladder point (core, mem).
func (m *Model) Time(core, mem int) time.Duration {
	return units.Seconds(m.TimeSeconds(core, mem))
}

// EnergyJoules predicts total energy at ladder point (core, mem) in joules.
func (m *Model) EnergyJoules(core, mem int) float64 {
	t := m.TimeSeconds(core, mem)
	return (m.e[0]+m.e[1]*m.fcR[core]+m.e[2]*m.fmR[mem])*t + m.e[3]
}

// Energy predicts total energy at ladder point (core, mem).
func (m *Model) Energy(core, mem int) units.Energy {
	return units.Energy(m.EnergyJoules(core, mem))
}

// leastSquares solves min ‖X·β − y‖₂ by normal equations. X is rows of
// identical length; the returned coefficient vector has that length. A
// rank-deficient system returns ErrDegenerate.
func leastSquares(x [][]float64, y []float64) ([]float64, error) {
	n := len(x[0])
	// A = XᵀX (symmetric n×n), b = Xᵀy.
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for r, row := range x {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a[i][j] += row[i] * row[j]
			}
			b[i] += row[i] * y[r]
		}
	}
	return solve(a, b)
}

// solve performs Gaussian elimination with partial pivoting on the (small,
// dense) system a·β = b, mutating both arguments.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		p := a[col][col]
		if math.Abs(p) < 1e-12 || math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, ErrDegenerate
		}
		for r := col + 1; r < n; r++ {
			f := a[r][col] / p
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	out := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a[i][j] * out[j]
		}
		out[i] = s / a[i][i]
	}
	return out, nil
}
