package core

import (
	"math"
	"slices"
	"time"

	"greengpu/internal/bus"
	"greengpu/internal/cpusim"
	"greengpu/internal/gpusim"
	"greengpu/internal/sim"
	"greengpu/internal/units"
	"greengpu/internal/workload"
)

// maxClosedPhases is the number of positive-length phases the closed-form
// loop holds in its fixed, stack-allocated phase array. Profiles with more
// phases (none on the testbed) take Run.
const maxClosedPhases = 16

// ClosedForm is the baseline mode's closed form for one workload on one
// pair of device tables: the Rodinia default that every saving is measured
// against, and every point of the clock-grid searches. Every baseline
// iteration is identical — same levels, same demands, same bus window — so
// a run reduces to a per-point precompute and a per-iteration accumulation
// that reproduce Run on a fresh machine bit for bit.
//
// The form tabulates the host→device bus time and, per kernel phase, the
// per-domain busy times against each ladder (the separable halves of the
// phase timing model), so points that differ in one knob index the other
// domain's unchanged column. It is immutable after construction and safe
// for concurrent use.
type ClosedForm struct {
	// Profile is the workload the form evaluates.
	Profile *workload.Profile

	gt      *gpusim.Tables
	ct      *cpusim.Tables
	busTime time.Duration // host→device transfer service time
	gamma   float64
	phases  []closedPhase

	// maxIters is the longest run, in iterations, the form expresses at
	// every ladder point: the run ends before sim.MaxTime, so the clock
	// never saturates. 0 when the profile has more phases than the loop
	// holds or one iteration can already reach the horizon.
	maxIters int
}

// closedPhase is one kernel phase's busy times against each ladder.
type closedPhase struct {
	stall float64
	tc    []time.Duration // core busy time per core level
	tm    []time.Duration // memory busy time per memory level
}

// NewClosedForm tabulates p against the device tables and the (valid) bus,
// with exactly the arithmetic and operation order of the event path's
// Profile.GPUKernel, Bus.TransferTime and GPU.startSegment, and derives the
// form's iteration limit.
func NewClosedForm(p *workload.Profile, gt *gpusim.Tables, ct *cpusim.Tables, b *bus.Config) ClosedForm {
	const gpuUnits = (1 - 0) * workload.UnitsPerIteration // baseline: r = 0
	xfer := p.TransferBytes(gpuUnits)
	cf := ClosedForm{
		Profile: p,
		gt:      gt,
		ct:      ct,
		busTime: b.Latency + b.Bandwidth.TransferTime(xfer),
		gamma:   gt.Gamma(),
		phases:  make([]closedPhase, len(p.Phases)),
	}
	nc, nm := len(gt.CoreDenom), len(gt.MemDenom)
	for i, ph := range p.Phases {
		u := gpuUnits * ph.Fraction
		ops := ph.OpsPerUnit * u
		bytes := ph.BytesPerUnit * u
		cp := closedPhase{
			stall: ph.StallPerUnit * u,
			tc:    make([]time.Duration, nc),
			tm:    make([]time.Duration, nm),
		}
		for c := 0; c < nc; c++ {
			cp.tc[c] = gt.CoreTime(ops, c)
		}
		for m := 0; m < nm; m++ {
			cp.tm[m] = gt.MemTime(bytes, m)
		}
		cf.phases[i] = cp
	}
	if len(cf.phases) > maxClosedPhases {
		return cf
	}
	// A phase's time grows with each domain's busy time (γ ∈ [0,1]), so
	// the slowest columns bound every ladder point's iteration span.
	span := cf.busTime
	for i := range cf.phases {
		ph := &cf.phases[i]
		t := gpusim.UnifyPhaseTime(slices.Max(ph.tc), slices.Max(ph.tm), ph.stall, cf.gamma)
		if t <= 0 {
			continue
		}
		if t >= sim.MaxTime-span {
			return cf // one iteration can already reach the horizon
		}
		span += t
	}
	cf.maxIters = math.MaxInt
	if span > 0 {
		cf.maxIters = int((sim.MaxTime - 1) / span)
	}
	return cf
}

// Admits resolves cfg's iteration count as Run does and reports whether
// the form expresses the run: cfg is eligible for the closed form, the
// profile fits the loop's phase array, and the run ends before sim.MaxTime
// at every ladder point.
func (cf *ClosedForm) Admits(cfg *Config) (iters int, ok bool) {
	iters = runIterations(cf.Profile, cfg)
	return iters, cfg.closedFormEligible() && iters <= cf.maxIters
}

// Run is the closed form's full result, the records included. One
// allocation holds the result and the records of a run of up to four
// iterations. The caller guarantees Admits(cfg) returned iters and true.
func (cf *ClosedForm) Run(cfg *Config, iters int) (*Result, error) {
	buf := &struct {
		res   Result
		stats [4]IterationStats
	}{res: Result{Workload: cf.Profile.Name, Mode: cfg.Mode}}
	res := &buf.res
	if iters <= len(buf.stats) {
		res.Iterations = buf.stats[:iters:iters]
	} else {
		res.Iterations = make([]IterationStats, iters)
	}
	if err := cf.Totals(cfg, iters, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Totals replays the baseline event sequence in closed form, with the
// engine's exact accrual arithmetic (same operands, same order), so the
// totals it stores into res are byte-identical to Run on a fresh machine.
// It stores the per-iteration records too when res.Iterations has room for
// them; with nil res.Iterations it stores only the totals. The caller
// guarantees Admits(cfg) returned iters and true, so no event time reaches
// the clock's saturation range.
func (cf *ClosedForm) Totals(cfg *Config, iters int, res *Result) error {
	gt := cf.gt
	lv, err := cfg.startLevels(len(gt.CoreDenom), len(gt.MemDenom), len(cf.ct.BasePower))
	if err != nil {
		return err
	}
	c, m := lv.Core, lv.Mem
	cpuBusy := 0
	if cfg.SpinWait {
		cpuBusy = 1
	}
	idleP := gt.Power(c, m, 0, 0)
	cpuP := cf.ct.PowerAt(lv.CPU, cpuBusy)
	spin := cfg.SpinWait

	// Per-point precompute: the iteration span and each phase's energy at
	// (c, m), pulled from the shared per-domain columns into a fixed-size
	// array on the evaluator's stack.
	var energies [maxClosedPhases]units.Energy
	nPhases := 0
	span := cf.busTime
	for p := range cf.phases {
		ph := &cf.phases[p]
		tc, tm := ph.tc[c], ph.tm[m]
		t := gpusim.UnifyPhaseTime(tc, tm, ph.stall, cf.gamma)
		if t <= 0 {
			continue // zero-length phase: completes without accrual
		}
		uc := units.Clamp(tc.Seconds()/t.Seconds(), 0, 1)
		um := units.Clamp(tm.Seconds()/t.Seconds(), 0, 1)
		energies[nPhases] = gt.Power(c, m, uc, um).Over(t)
		nPhases++
		span += t
	}
	iterWall := span
	idleE := idleP.Over(cf.busTime)
	cpuEIter := cpuP.Over(span)

	recs := res.Iterations
	var now time.Duration
	var gpuE, cpuE, spinE units.Energy
	var spinT time.Duration
	for i := 0; i < iters; i++ {
		startGPU, startCPU := gpuE, cpuE
		// Host→device transfer window: the GPU accrues it idle when the
		// kernel starts; then one accrual per positive-length phase.
		if cf.busTime > 0 {
			gpuE += idleE
		}
		for _, e := range energies[:nPhases] {
			gpuE += e
		}
		// The CPU side has no work (r = 0): it accrues once per iteration
		// over the whole wall time, spinning one core when SpinWait
		// models the synchronous CUDA wait.
		if iterWall > 0 {
			cpuE += cpuEIter
			if spin {
				spinT += iterWall
				spinE += cpuEIter
			}
		}
		now += iterWall
		if i >= len(recs) {
			continue
		}
		st := &recs[i]
		st.Index = i
		st.TG = iterWall
		st.WallTime = iterWall
		st.CoreLevel = c
		st.MemLevel = m
		st.CPULevel = lv.CPU
		st.EnergyGPU = gpuE - startGPU
		st.EnergyCPU = cpuE - startCPU
		st.Energy = st.EnergyGPU + st.EnergyCPU
	}
	res.TotalTime = now
	res.EnergyGPU = gpuE
	res.EnergyCPU = cpuE
	res.Energy = res.EnergyGPU + res.EnergyCPU
	res.SpinTime = spinT
	res.SpinEnergy = spinE
	return nil
}
