// Package workload models the benchmark applications of the GreenGPU
// evaluation (paper §VI, Table II): the Rodinia and CUDA-SDK kernels bfs,
// lud, nbody, pathfinder (PF), quasirandomGenerator (QG), srad_v2, hotspot,
// kmeans and streamcluster.
//
// A workload is a Profile: a sequence of iterations (the paper's unit of
// workload division — the reduction point in kmeans, the barrier step in
// hotspot, a data chunk for embarrassingly parallel kernels), each made of
// phases with known compute, memory and stall demands per unit of work.
// Work units are 1% granules of an iteration, so the division tier's 5%
// steps map onto integral numbers of units.
//
// Profiles are not written down as raw operation counts. Instead they are
// calibrated: a Spec states the observable characterization the paper
// reports — per-phase core and memory utilizations at peak clocks and the
// iteration's all-GPU execution time — and Calibrate inverts the gpusim
// timing model to find the per-unit demands that reproduce exactly those
// observables on the simulated device. This keeps the workload set faithful
// to Table II without access to the original binaries.
package workload

import (
	"fmt"
	"time"

	"greengpu/internal/cpusim"
	"greengpu/internal/gpusim"
	"greengpu/internal/units"
)

// UnitsPerIteration is the work granularity: one unit is 1% of an
// iteration's work.
const UnitsPerIteration = 100.0

// PhaseTarget is one phase of a Spec: a fraction of the iteration's work
// with target utilizations measured at peak clocks.
type PhaseTarget struct {
	Label    string
	Fraction float64 // share of the iteration's work units
	CoreUtil float64 // u_core at peak clocks
	MemUtil  float64 // u_mem at peak clocks
}

// Spec is the observable characterization of a workload, in the terms the
// paper reports.
type Spec struct {
	Name        string
	Description string // Table II's characterization text
	Enlargement string // Table II's data-size enlargement note

	// IterationSeconds is the all-GPU execution time of one iteration at
	// peak clocks (after the paper's data-size enlargement).
	IterationSeconds float64
	// Iterations is the default number of iterations for a full run.
	Iterations int
	// Phases partition the iteration's work. Fractions must sum to 1.
	Phases []PhaseTarget

	// CPUSlowdown is how many times longer the CPU (all cores, peak
	// frequency) takes than the GPU (peak clocks) to process the same
	// work. It determines the balanced division point r* = 1/(1+S).
	CPUSlowdown float64
	// TransferMB is the host↔device traffic per iteration for the GPU's
	// share of work, in megabytes (decimal).
	TransferMB float64
	// RepartitionMB is the data that must be reshuffled across the bus
	// per 1.0 change of the division ratio, in megabytes. It is the
	// overhead that makes division-ratio oscillation costly.
	RepartitionMB float64
}

// Validate reports the first problem with the spec, if any.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: spec with empty name")
	}
	if s.IterationSeconds <= 0 {
		return fmt.Errorf("workload: %s: IterationSeconds must be positive", s.Name)
	}
	if s.Iterations <= 0 {
		return fmt.Errorf("workload: %s: Iterations must be positive", s.Name)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload: %s: need at least one phase", s.Name)
	}
	sum := 0.0
	for i, ph := range s.Phases {
		if ph.Fraction <= 0 {
			return fmt.Errorf("workload: %s: phase %d fraction must be positive", s.Name, i)
		}
		if ph.CoreUtil < 0 || ph.CoreUtil > 1 || ph.MemUtil < 0 || ph.MemUtil > 1 {
			return fmt.Errorf("workload: %s: phase %d utilizations must be in [0,1]", s.Name, i)
		}
		sum += ph.Fraction
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("workload: %s: phase fractions sum to %v, want 1", s.Name, sum)
	}
	if s.CPUSlowdown <= 0 {
		return fmt.Errorf("workload: %s: CPUSlowdown must be positive", s.Name)
	}
	if s.TransferMB < 0 || s.RepartitionMB < 0 {
		return fmt.Errorf("workload: %s: transfer sizes must be non-negative", s.Name)
	}
	return nil
}

// PhaseSpec is a calibrated phase: per-unit demands plus its work fraction.
type PhaseSpec struct {
	Label        string
	Fraction     float64
	OpsPerUnit   float64
	BytesPerUnit float64
	StallPerUnit float64 // seconds
}

// Profile is a calibrated workload ready to run on the simulated testbed.
type Profile struct {
	Name        string
	Description string
	Enlargement string
	Iterations  int
	Phases      []PhaseSpec

	CPUOpsPerUnit        float64
	TransferBytesPerUnit float64
	RepartitionBytes     float64 // per unit change of ratio × UnitsPerIteration

	spec Spec
}

// Spec returns the characterization this profile was calibrated from.
func (p *Profile) Spec() Spec { return p.spec }

// Calibrate inverts the device timing model: it finds per-unit compute,
// memory and stall demands such that at peak clocks each phase exhibits the
// spec's target utilizations and the whole iteration takes
// spec.IterationSeconds on the GPU alone.
//
// The inversion solves, per phase with target (uc, um) and per-unit time T,
// under the device model T = max(Tc, Tm, Ts) + γ·min(Tc, Tm):
//
//	Tc = uc·T,  Tm = um·T,  Ts = T·(1 − γ·min(uc, um))
//
// which is feasible iff max(uc,um) + γ·min(uc,um) ≤ 1 (that condition is
// exactly Ts ≥ max(Tc, Tm), i.e. the latency floor is the critical path at
// the calibration point). Infeasible targets return an error rather than
// silently clipping.
func Calibrate(spec Spec, gpu gpusim.Config, cpu cpusim.Config) (*Profile, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := gpu.Validate(); err != nil {
		return nil, err
	}
	if err := cpu.Validate(); err != nil {
		return nil, err
	}

	unitT := spec.IterationSeconds / UnitsPerIteration
	sps := float64(gpu.SMs*gpu.SPsPerSM) * gpu.IPC
	fcPeak := float64(gpu.CoreLevels[len(gpu.CoreLevels)-1])
	fmPeak := float64(gpu.MemLevels[len(gpu.MemLevels)-1])

	p := &Profile{
		Name:        spec.Name,
		Description: spec.Description,
		Enlargement: spec.Enlargement,
		Iterations:  spec.Iterations,
		spec:        spec,
	}
	for i, ph := range spec.Phases {
		tc := ph.CoreUtil * unitT
		tm := ph.MemUtil * unitT
		lo, hi := tc, tm
		if lo > hi {
			lo, hi = hi, lo
		}
		ts := unitT - gpu.OverlapGamma*lo
		if ts < hi-1e-12 {
			return nil, fmt.Errorf(
				"workload: %s phase %d: targets (%.2f, %.2f) infeasible with overlap γ=%.2f: max+γ·min = %.3f > 1",
				spec.Name, i, ph.CoreUtil, ph.MemUtil, gpu.OverlapGamma, (hi+gpu.OverlapGamma*lo)/unitT)
		}
		p.Phases = append(p.Phases, PhaseSpec{
			Label:        ph.Label,
			Fraction:     ph.Fraction,
			OpsPerUnit:   tc * sps * fcPeak,
			BytesPerUnit: tm * gpu.BytesPerMemCycle * fmPeak,
			StallPerUnit: ts,
		})
	}

	// CPU cost: the whole iteration takes spec.CPUSlowdown × longer on the
	// CPU at its peak P-state with all cores.
	cpuPeak := cpu.PStates[len(cpu.PStates)-1].Frequency
	cpuUnitT := spec.CPUSlowdown * unitT
	p.CPUOpsPerUnit = cpuUnitT * float64(cpu.Cores) * cpu.IPC * float64(cpuPeak)

	p.TransferBytesPerUnit = spec.TransferMB * 1e6 / UnitsPerIteration
	p.RepartitionBytes = spec.RepartitionMB * 1e6
	return p, nil
}

// MustCalibrate is Calibrate that panics on error, for preset tables whose
// feasibility is covered by tests.
func MustCalibrate(spec Spec, gpu gpusim.Config, cpu cpusim.Config) *Profile {
	p, err := Calibrate(spec, gpu, cpu)
	if err != nil {
		panic(err)
	}
	return p
}

// GPUKernel builds the device kernel for the given number of work units of
// one iteration (e.g. (1−r)·UnitsPerIteration under division ratio r).
// Zero or negative units return an empty kernel that completes immediately.
func (p *Profile) GPUKernel(name string, workUnits float64) *gpusim.Kernel {
	return &gpusim.Kernel{Name: name, Phases: p.AppendGPUPhases(nil, workUnits)}
}

// AppendGPUPhases appends GPUKernel's phases for workUnits to dst and
// returns the extended slice, so a caller running one kernel at a time can
// reuse a single phase buffer. Zero or negative units append nothing.
func (p *Profile) AppendGPUPhases(dst []gpusim.Phase, workUnits float64) []gpusim.Phase {
	if workUnits <= 0 {
		return dst
	}
	for _, ph := range p.Phases {
		u := workUnits * ph.Fraction
		dst = append(dst, gpusim.Phase{
			Label: ph.Label,
			Ops:   ph.OpsPerUnit * u,
			Bytes: ph.BytesPerUnit * u,
			Stall: ph.StallPerUnit * u,
		})
	}
	return dst
}

// CPUOps returns the CPU operation count for the given work units.
func (p *Profile) CPUOps(workUnits float64) float64 {
	if workUnits <= 0 {
		return 0
	}
	return p.CPUOpsPerUnit * workUnits
}

// TransferBytes returns the host↔device traffic for the given work units.
func (p *Profile) TransferBytes(workUnits float64) units.Bytes {
	if workUnits <= 0 {
		return 0
	}
	return units.Bytes(p.TransferBytesPerUnit * workUnits)
}

// RepartitionTraffic returns the bus traffic caused by changing the
// division ratio from oldR to newR.
func (p *Profile) RepartitionTraffic(oldR, newR float64) units.Bytes {
	d := newR - oldR
	if d < 0 {
		d = -d
	}
	return units.Bytes(d * p.RepartitionBytes)
}

// IterationTimeGPU predicts the all-GPU iteration time at the given levels.
func (p *Profile) IterationTimeGPU(g *gpusim.GPU, core, mem int) time.Duration {
	var total time.Duration
	for _, ph := range p.Phases {
		u := UnitsPerIteration * ph.Fraction
		total += g.PhaseTime(ph.OpsPerUnit*u, ph.BytesPerUnit*u, ph.StallPerUnit*u, core, mem)
	}
	return total
}

// AggregateUtilization returns the work-weighted mean utilizations of the
// profile's phases at peak clocks — the numbers Table II classifies.
func (p *Profile) AggregateUtilization() (core, mem float64) {
	for i, ph := range p.spec.Phases {
		_ = i
		core += ph.Fraction * ph.CoreUtil
		mem += ph.Fraction * ph.MemUtil
	}
	return core, mem
}

// Class is a qualitative utilization level, for rendering Table II.
type Class int

// Utilization classes.
const (
	Low Class = iota
	Medium
	High
)

// String returns the Table II wording.
func (c Class) String() string {
	switch c {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classify maps a utilization to its qualitative class using the breaks
// implied by the paper's characterization (< 0.45 low, < 0.75 medium).
func Classify(u float64) Class {
	switch {
	case u < 0.45:
		return Low
	case u < 0.75:
		return Medium
	default:
		return High
	}
}

// Fluctuating reports whether the profile's phases differ enough in
// utilization to be called "highly fluctuating" in Table II's sense
// (≥ 0.3 spread on either domain).
func (p *Profile) Fluctuating() bool {
	if len(p.spec.Phases) < 2 {
		return false
	}
	minC, maxC := 1.0, 0.0
	minM, maxM := 1.0, 0.0
	for _, ph := range p.spec.Phases {
		if ph.CoreUtil < minC {
			minC = ph.CoreUtil
		}
		if ph.CoreUtil > maxC {
			maxC = ph.CoreUtil
		}
		if ph.MemUtil < minM {
			minM = ph.MemUtil
		}
		if ph.MemUtil > maxM {
			maxM = ph.MemUtil
		}
	}
	return maxC-minC >= 0.3 || maxM-minM >= 0.3
}
