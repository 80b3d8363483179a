// Package dvfs implements GreenGPU's coordinated frequency-scaling
// algorithm for GPU cores and memory (paper §V-A, Algorithm 1, Table I).
//
// The scaler maintains a weight for every (core level, memory level) pair.
// Each scaling interval it reads the measured core and memory utilizations,
// charges every pair a loss describing how badly that pair suits the
// observed utilizations, updates the weights multiplicatively (Weighted
// Majority Algorithm), and enforces the highest-weighted pair for the next
// interval.
//
// The per-level suitability reference umean maps frequency levels linearly
// onto utilization: the peak level is most suitable at utilization 1, the
// lowest level at utilization 0 (the mapping of Dhiman & Rosing validated on
// CPUs, which the paper adopts). Table I's loss then splits into an energy
// loss (running faster than the workload needs: u < umean) and a
// performance loss (running slower than the workload needs: u > umean),
// blended by α per domain:
//
//	l_c = α_c·l_ce + (1−α_c)·l_cp      (Eq. 1)
//	l_m = α_m·l_me + (1−α_m)·l_mp      (Eq. 2)
//	TotalLoss = φ·l_c + (1−φ)·l_m      (Eq. 3)
//	w ← w·(1 − (1−β)·TotalLoss)        (Eq. 4)
//
// with the paper's manually tuned constants α_c = 0.15, α_m = 0.02,
// φ = 0.3, β = 0.2. Small α favours performance: the paper's stated target
// is saving energy with only negligible performance degradation.
package dvfs

import (
	"fmt"
	"math"

	"greengpu/internal/telemetry"
	"greengpu/internal/units"
	"greengpu/internal/wma"
)

// Package metrics (see docs/OBSERVABILITY.md). No-ops unless telemetry is
// enabled. Step only bumps the scaler's own tallies; FlushMetrics adds
// them here in one Add each, which core.Run does when a run ends.
var (
	metricSteps = telemetry.NewCounter("greengpu_dvfs_steps_total",
		"Tier-2 epoch decisions taken (Scaler.Step calls) across all runs.")
	metricLevelChanges = telemetry.NewCounter("greengpu_dvfs_level_changes_total",
		"Tier-2 decisions that changed the enforced (core, mem) level pair.")
)

// Params are the tuning constants of the scaling algorithm.
type Params struct {
	AlphaCore float64 // energy-vs-performance blend for the core domain
	AlphaMem  float64 // energy-vs-performance blend for the memory domain
	Phi       float64 // core-vs-memory blend in the total loss
	Beta      float64 // WMA update parameter
}

// DefaultParams returns the constants the paper derived experimentally for
// the GeForce 8800 GTX testbed.
func DefaultParams() Params {
	return Params{AlphaCore: 0.15, AlphaMem: 0.02, Phi: 0.3, Beta: 0.2}
}

// Validate reports the first problem with the parameters, if any.
func (p *Params) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("dvfs: %s = %v, must be in [0,1]", name, v)
		}
		return nil
	}
	if err := check("AlphaCore", p.AlphaCore); err != nil {
		return err
	}
	if err := check("AlphaMem", p.AlphaMem); err != nil {
		return err
	}
	if err := check("Phi", p.Phi); err != nil {
		return err
	}
	if p.Beta <= 0 || p.Beta >= 1 {
		return fmt.Errorf("dvfs: Beta = %v, must be in (0,1)", p.Beta)
	}
	return nil
}

// UMeans maps a frequency ladder onto most-suitable utilizations: lowest
// level ↦ 0, peak ↦ 1, linear in between. A single-level ladder maps to 1
// (that level must serve every utilization).
func UMeans(levels []units.Frequency) []float64 {
	n := len(levels)
	if n == 0 {
		panic("dvfs: UMeans on empty ladder")
	}
	out := make([]float64, n)
	lo, hi := float64(levels[0]), float64(levels[n-1])
	if hi <= lo {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	for i, f := range levels {
		out[i] = (float64(f) - lo) / (hi - lo)
	}
	return out
}

// Loss computes Table I's blended loss for one domain level: u is the
// measured utilization, umean the level's most-suitable utilization, alpha
// the energy-vs-performance blend. The result is in [0,1] whenever the
// inputs are.
func Loss(u, umean, alpha float64) float64 {
	var le, lp float64
	if u > umean {
		lp = u - umean // level too slow for the load: performance loss
	} else {
		le = umean - u // level too fast for the load: energy loss
	}
	return alpha*le + (1-alpha)*lp
}

// Decision is one scaling step's outcome.
type Decision struct {
	CoreLevel int
	MemLevel  int
}

// PreferredPair returns the (core, mem) level pair minimizing Eq. 3's
// blended loss for one static utilization sample — the open-loop answer the
// WMA scaler converges to when the sample repeats. Ties keep the lowest
// level of each domain. Utilizations are sanitized like live sensor
// samples: non-finite values read as 0, everything clamps to [0,1].
func PreferredPair(coreLevels, memLevels []units.Frequency, p Params, uCore, uMem float64) Decision {
	uCore, uMem = sanitizeUtil(uCore), sanitizeUtil(uMem)
	// Eq. 3 is separable: Phi and (1-Phi) are non-negative constant
	// weights, so the pair argmin is each domain's argmin.
	argmin := func(levels []units.Frequency, u, alpha float64) int {
		umeans := UMeans(levels)
		best, bestLoss := 0, math.Inf(1)
		for i, um := range umeans {
			if l := Loss(u, um, alpha); l < bestLoss {
				best, bestLoss = i, l
			}
		}
		return best
	}
	return Decision{
		CoreLevel: argmin(coreLevels, uCore, p.AlphaCore),
		MemLevel:  argmin(memLevels, uMem, p.AlphaMem),
	}
}

// PairDistance returns the ladder distance between two level pairs: the
// Chebyshev metric max(|Δcore|, |Δmem|), in ladder steps. A distance of 0
// is the same pair; 1 means both domains are within one level — the
// "sweet-spot error ≤ 1 ladder step" criterion the prediction validation
// study is held to (see TestPredictValidation in internal/experiments).
func PairDistance(a, b Decision) int {
	dc := a.CoreLevel - b.CoreLevel
	if dc < 0 {
		dc = -dc
	}
	dm := a.MemLevel - b.MemLevel
	if dm < 0 {
		dm = -dm
	}
	if dm > dc {
		return dm
	}
	return dc
}

// weightTable abstracts the WMA storage so the scaler can run on either
// the float table or the §VI-style 8-bit fixed-point table. Update applies
// one round of per-expert losses and returns the new argmax.
type weightTable interface {
	Update(losses []float64) int
	Reset()
	Weight(i int) float64
}

// Scaler is the coordinated core+memory frequency scaler.
type Scaler struct {
	params Params

	coreUMean []float64
	memUMean  []float64
	table     weightTable

	// Scratch buffers reused across Steps so the per-interval update is
	// allocation-free: per-level domain losses and the combined per-pair
	// loss vector. Eq. 3 is separable in (i, j), so the N·M pair losses
	// need only N+M Loss evaluations.
	lcBuf   []float64
	lmBuf   []float64
	lossBuf []float64

	steps int
	// lastBest tracks the previous decision's flat pair index (-1 before
	// the first Step) so level changes count enforced transitions.
	lastBest int
	// Steps and level changes not yet added to the package metrics.
	unflushedSteps, unflushedChanges uint64
}

// NewScaler creates a scaler for the given frequency ladders (both sorted
// ascending, as in gpusim). It panics on invalid parameters or empty
// ladders; use Params.Validate to check parameters first.
func NewScaler(coreLevels, memLevels []units.Frequency, p Params) *Scaler {
	return newScaler(coreLevels, memLevels, p, func(n int) weightTable {
		return wma.New(n, p.Beta)
	})
}

// NewScalerFixed8 creates a scaler whose weight table uses the 8-bit
// fixed-point arithmetic of the paper's §VI on-chip implementation sketch
// (a 6×6 table in tens of bytes, multiply-shift updates). Decisions track
// the float scaler's; the experiments harness quantifies the gap.
func NewScalerFixed8(coreLevels, memLevels []units.Frequency, p Params) *Scaler {
	return newScaler(coreLevels, memLevels, p, func(n int) weightTable {
		return wma.NewFixed8(n, p.Beta)
	})
}

func newScaler(coreLevels, memLevels []units.Frequency, p Params, mk func(n int) weightTable) *Scaler {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	cu := UMeans(coreLevels)
	mu := UMeans(memLevels)
	s := &Scaler{
		params:    p,
		coreUMean: cu,
		memUMean:  mu,
		table:     mk(len(cu) * len(mu)),
		lcBuf:     make([]float64, len(cu)),
		lmBuf:     make([]float64, len(mu)),
		lossBuf:   make([]float64, len(cu)*len(mu)),
		lastBest:  -1,
	}
	return s
}

// Params returns the scaler's tuning constants.
func (s *Scaler) Params() Params { return s.params }

// Levels returns the ladder sizes (N core levels, M memory levels).
func (s *Scaler) Levels() (core, mem int) { return len(s.coreUMean), len(s.memUMean) }

// Steps returns the number of Step calls since creation or Reset.
func (s *Scaler) Steps() int { return s.steps }

// Reset restores the weight table to indifference.
func (s *Scaler) Reset() {
	s.table.Reset()
	s.steps = 0
	s.lastBest = -1
}

// TotalLoss returns Eq. 3's combined loss for the (core i, mem j) pair under
// measured utilizations (uCore, uMem). Utilizations are clamped to [0,1];
// non-finite readings (a failed sensor sample) are treated as 0, i.e. idle.
func (s *Scaler) TotalLoss(i, j int, uCore, uMem float64) float64 {
	uCore = sanitizeUtil(uCore)
	uMem = sanitizeUtil(uMem)
	lc := Loss(uCore, s.coreUMean[i], s.params.AlphaCore)
	lm := Loss(uMem, s.memUMean[j], s.params.AlphaMem)
	return s.params.Phi*lc + (1-s.params.Phi)*lm
}

// Step runs one interval of Algorithm 1: update every pair's weight from
// the measured utilizations, then return the highest-weighted pair to
// enforce for the next interval.
//
// The pair losses are assembled from per-level domain losses (Eq. 3 is
// separable) into a reused scratch vector, with the same operation order as
// TotalLoss — Step(u_c, u_m) agrees bit-for-bit with charging TotalLoss
// pair by pair, at N+M rather than 2·N·M Loss evaluations and zero
// allocations. The weight table then takes the whole vector in one pass
// that also finds the new argmax.
func (s *Scaler) Step(uCore, uMem float64) Decision {
	uCore = sanitizeUtil(uCore)
	uMem = sanitizeUtil(uMem)
	for i, um := range s.coreUMean {
		s.lcBuf[i] = Loss(uCore, um, s.params.AlphaCore)
	}
	for j, um := range s.memUMean {
		s.lmBuf[j] = Loss(uMem, um, s.params.AlphaMem)
	}
	phi, oneMinusPhi := s.params.Phi, 1-s.params.Phi
	m := len(s.lmBuf)
	for i, lci := range s.lcBuf {
		lc := phi * lci
		row := s.lossBuf[i*m : (i+1)*m]
		for j, lm := range s.lmBuf {
			row[j] = lc + oneMinusPhi*lm
		}
	}
	best := s.table.Update(s.lossBuf)
	s.steps++
	s.unflushedSteps++
	if best != s.lastBest && s.lastBest >= 0 {
		s.unflushedChanges++
	}
	s.lastBest = best
	return Decision{CoreLevel: best / m, MemLevel: best % m}
}

// FlushMetrics adds the steps and level changes taken since the last flush
// to greengpu_dvfs_steps_total and greengpu_dvfs_level_changes_total, one
// Add each. Tallying locally keeps contended atomics out of the per-epoch
// path when several runs share the process.
func (s *Scaler) FlushMetrics() {
	metricSteps.Add(s.unflushedSteps)
	metricLevelChanges.Add(s.unflushedChanges)
	s.unflushedSteps, s.unflushedChanges = 0, 0
}

// Weight returns the current weight of the (core i, mem j) pair, for
// tracing and tests.
func (s *Scaler) Weight(i, j int) float64 {
	return s.table.Weight(i*len(s.memUMean) + j)
}

func sanitizeUtil(u float64) float64 {
	if math.IsNaN(u) || math.IsInf(u, 0) {
		return 0
	}
	return units.Clamp(u, 0, 1)
}

// CoreUMean returns level i's most-suitable core utilization.
func (s *Scaler) CoreUMean(i int) float64 { return s.coreUMean[i] }

// MemUMean returns level j's most-suitable memory utilization.
func (s *Scaler) MemUMean(j int) float64 { return s.memUMean[j] }
