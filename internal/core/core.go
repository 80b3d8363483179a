// Package core implements the GreenGPU framework itself — the paper's
// primary contribution (§IV, §V): a holistic, two-tier energy-management
// loop for GPU-CPU heterogeneous systems.
//
// Tier 1 (workload division) runs once per iteration: it splits each
// iteration's work between the CPU and the GPU so both sides finish at
// about the same time, minimizing the energy one side wastes idling (or
// spin-waiting) for the other.
//
// Tier 2 (frequency scaling) runs on a much shorter period: the coordinated
// WMA scaler assigns GPU core and memory frequency levels from their
// measured utilizations, and the Linux ondemand governor, sampling every
// GovernorInterval, drives the processor P-state. The division period is
// kept much longer than the scaling period (the paper uses ≥ 40×) so the
// WMA loop converges within one division interval and the two tiers do not
// interfere.
//
// The framework runs a workload.Profile on a testbed.Machine under one of
// four modes mirroring the paper's evaluation configurations:
//
//	Baseline     all work on the GPU, every clock at its peak — the
//	             Rodinia default configuration (§VII-C).
//	FreqScaling  all work on the GPU, tier 2 active, tier 1 off (§VII-A).
//	Division     tier 1 active, all clocks pinned at peak (§VII-B).
//	Holistic     both tiers active — GreenGPU proper (§VII-C).
package core

import (
	"fmt"
	"time"

	"greengpu/internal/cpusim"
	"greengpu/internal/division"
	"greengpu/internal/dvfs"
	"greengpu/internal/faultinject"
	"greengpu/internal/gpusim"
	"greengpu/internal/sim"
	"greengpu/internal/telemetry"
	"greengpu/internal/testbed"
	"greengpu/internal/units"
	"greengpu/internal/workload"
)

// Package metrics (see docs/OBSERVABILITY.md). No-ops unless telemetry is
// enabled. Counters a run bumps more than once (iterations here, the tier-2
// scaler's and governor's decisions, the guards' recovery actions) are
// tallied in the run's own state and added once each when Run returns.
var (
	metricRunsStarted = telemetry.NewCounter("greengpu_core_runs_total",
		"Framework runs started (core.Run calls past validation).")
	metricIterations = telemetry.NewCounter("greengpu_core_iterations_total",
		"Workload iterations completed across all runs.")
)

// Mode selects which tiers are active.
type Mode int

// Framework modes.
const (
	Baseline Mode = iota
	FreqScaling
	Division
	Holistic
)

// String returns the mode's name as used in the paper's figures.
func (m Mode) String() string {
	switch m {
	case Baseline:
		return "baseline"
	case FreqScaling:
		return "frequency-scaling"
	case Division:
		return "division"
	case Holistic:
		return "greengpu"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode resolves a framework-mode name, for every CLI, spec and
// daemon request: each mode's String form, plus "scaling" and
// "freqscaling" for FreqScaling and "holistic" for Holistic.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "baseline":
		return Baseline, nil
	case "frequency-scaling", "freqscaling", "scaling":
		return FreqScaling, nil
	case "division":
		return Division, nil
	case "greengpu", "holistic":
		return Holistic, nil
	}
	return 0, fmt.Errorf("unknown mode %q", name)
}

// divides reports whether tier 1 is active in this mode.
func (m Mode) divides() bool { return m == Division || m == Holistic }

// scales reports whether tier 2 is active in this mode.
func (m Mode) scales() bool { return m == FreqScaling || m == Holistic }

// Config parameterizes a framework run.
type Config struct {
	Mode Mode

	// DVFSInterval is tier 2's period. The paper uses 3 s.
	DVFSInterval time.Duration
	// GPUScaler holds the WMA constants (defaults: the paper's).
	GPUScaler dvfs.Params
	// Fixed8Scaler runs tier 2 on the 8-bit fixed-point weight table of
	// the paper's §VI on-chip implementation sketch instead of float64.
	Fixed8Scaler bool
	// SMScaling additionally power-gates stream multiprocessors every
	// scaling interval (dvfs.SMPolicy) — the core-count-throttling
	// comparator from the paper's related work ([9], [12]). It only
	// affects energy on devices with PowerParams.CoreGatable > 0.
	SMScaling bool

	// Division holds tier 1's parameters (step, initial ratio, safeguard).
	Division division.Config

	// DivisionPolicy overrides tier 1's strategy entirely (nil uses the
	// paper's step heuristic configured by Division). This is the
	// integration point §V-B mentions for more sophisticated division
	// algorithms, e.g. division.Qilin's adaptive mapping.
	DivisionPolicy division.Policy

	// Iterations overrides the profile's default iteration count when > 0.
	Iterations int

	// SpinWait models the synchronous CUDA communication of the paper's
	// benchmarks: while the GPU computes and the CPU has nothing left, one
	// CPU core spins at 100% utilization. Disabling it models ideal
	// blocking waits.
	SpinWait bool

	// InitialLevels overrides the starting clock levels. For modes
	// without tier 2 the levels persist for the whole run, which is how
	// the fixed-frequency sweeps of the paper's Fig. 1 are produced.
	// Nil keeps the mode's default (peak for non-scaling modes, lowest
	// for scaling modes).
	InitialLevels *Levels

	// StaticRatio pins the CPU share of every iteration without tier 1 —
	// the paper's static-division sweeps (Fig. 2 and §VII-B's
	// optimality study). Only meaningful for modes without dynamic
	// division; must be in [0,1].
	StaticRatio *float64

	// ActuatorFilter, if non-nil, transforms the scaler's decision before
	// it is enforced on the device. It exists for fault injection —
	// stuck or clamped clock actuators (a flaky nvidia-settings) — in
	// robustness studies. The scaler keeps learning from real
	// utilizations; only the enforcement is perturbed.
	ActuatorFilter func(d dvfs.Decision) dvfs.Decision

	// FaultPlan, when non-nil and not Zero, injects the deterministic
	// sensor, actuator, meter and straggler faults of internal/faultinject
	// and arms the hardened recovery paths (hold-last-good, retry with
	// backoff, watchdog failsafe — see dvfs.Guard).
	// Unlike ActuatorFilter the plan is pure data, so faulty runs stay
	// cacheable: the run cache fingerprints the plan into the point key. A
	// nil or Zero plan leaves the control loop byte-identical to a build
	// without fault injection.
	FaultPlan *faultinject.Plan

	// OnDVFS, if non-nil, observes every tier 2 decision.
	OnDVFS func(at time.Duration, uCore, uMem float64, d dvfs.Decision)
	// OnCPUGovernor, if non-nil, observes every CPU governor decision.
	// Setting it makes the governor tick every period, skipping none
	// (see GovernorInterval), so the hook sees every decision.
	OnCPUGovernor func(at time.Duration, util float64, level int)
	// OnIteration, if non-nil, observes every completed iteration.
	OnIteration func(IterationStats)
}

// Levels names a clock operating point across the machine's domains.
type Levels struct {
	Core, Mem, CPU int
}

// GovernorInterval is the CPU governor's sampling period when tier 2 is
// active; the governor is Linux ondemand, as in the paper. With no armed
// FaultPlan and no OnCPUGovernor hook, a tick that keeps the P-state skips
// the ticks that would repeat it before the next event and credits them to
// the governor counters; the result is the same bit for bit.
const GovernorInterval = time.Second

// RecoveryCounts tallies the recovery actions the hardened control paths
// took, summed over the GPU guard, the CPU guard, and the CPU governor's
// hold-last-good.
type RecoveryCounts struct {
	// HeldSamples is sensor samples replaced by the last good reading.
	HeldSamples uint64
	// Retries is frequency-transition attempts re-issued after a failure.
	Retries uint64
	// DeferredApplies is delayed transitions that eventually landed.
	DeferredApplies uint64
	// WatchdogTrips is watchdog activations onto the failsafe levels.
	WatchdogTrips uint64
}

// Total returns the number of recovery actions across all kinds.
func (c RecoveryCounts) Total() uint64 {
	return c.HeldSamples + c.Retries + c.DeferredApplies + c.WatchdogTrips
}

// Sub returns the per-kind difference c − earlier, for windowed counts.
func (c RecoveryCounts) Sub(earlier RecoveryCounts) RecoveryCounts {
	return RecoveryCounts{
		HeldSamples:     c.HeldSamples - earlier.HeldSamples,
		Retries:         c.Retries - earlier.Retries,
		DeferredApplies: c.DeferredApplies - earlier.DeferredApplies,
		WatchdogTrips:   c.WatchdogTrips - earlier.WatchdogTrips,
	}
}

// DefaultConfig returns the paper's settings for the given mode.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:         mode,
		DVFSInterval: 3 * time.Second,
		GPUScaler:    dvfs.DefaultParams(),
		Division:     division.DefaultConfig(),
		SpinWait:     true,
	}
}

// Validate reports the first problem with the configuration, if any.
func (c *Config) Validate() error {
	if c.Mode < Baseline || c.Mode > Holistic {
		return fmt.Errorf("core: unknown mode %d", int(c.Mode))
	}
	if c.Mode.scales() {
		if c.DVFSInterval <= 0 {
			return fmt.Errorf("core: DVFSInterval must be positive")
		}
		if err := c.GPUScaler.Validate(); err != nil {
			return err
		}
	}
	if c.Mode.divides() && c.DivisionPolicy == nil {
		if err := c.Division.Validate(); err != nil {
			return err
		}
	}
	if c.Iterations < 0 {
		return fmt.Errorf("core: Iterations must be non-negative")
	}
	if c.StaticRatio != nil {
		if c.Mode.divides() {
			return fmt.Errorf("core: StaticRatio conflicts with dynamic division in mode %v", c.Mode)
		}
		if *c.StaticRatio < 0 || *c.StaticRatio > 1 {
			return fmt.Errorf("core: StaticRatio = %v, must be in [0,1]", *c.StaticRatio)
		}
	}
	if c.FaultPlan != nil {
		if err := c.FaultPlan.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// closedFormEligible reports whether ClosedForm expresses the
// configuration: the baseline mode's event sequence with no dynamic
// control, no fault injection and no observers. Everything else takes the
// event path. TestClosedFormCoversConfigFields fails on a Config field
// this rule has not classified.
func (c *Config) closedFormEligible() bool {
	return c.Mode == Baseline &&
		(c.StaticRatio == nil || *c.StaticRatio == 0) &&
		(c.FaultPlan == nil || c.FaultPlan.Zero()) &&
		c.ActuatorFilter == nil &&
		c.DivisionPolicy == nil &&
		c.OnDVFS == nil &&
		c.OnCPUGovernor == nil &&
		c.OnIteration == nil
}

// runIterations is the number of iterations a run of p under cfg
// completes: the override when positive, else the profile's count, and at
// least one, since the loop always runs one.
func runIterations(p *workload.Profile, cfg *Config) int {
	if cfg.Iterations > 0 {
		return cfg.Iterations
	}
	return max(p.Iterations, 1)
}

// startLevels resolves the run's initial clock levels on ladders of
// nCore, nMem and nCPU levels: InitialLevels when set, else the peak for
// modes without tier 2 (the Rodinia default / best-performance
// configuration) and the lowest levels for modes with it, which start
// from the card's default and let the scaler ramp up, as in the paper's
// Fig. 5 runs. The CPU mirrors the GPU.
func (c *Config) startLevels(nCore, nMem, nCPU int) (Levels, error) {
	switch l := c.InitialLevels; {
	case l != nil:
		if l.Core < 0 || l.Core >= nCore || l.Mem < 0 || l.Mem >= nMem || l.CPU < 0 || l.CPU >= nCPU {
			return Levels{}, fmt.Errorf("core: InitialLevels %+v out of range", *l)
		}
		return *l, nil
	case c.Mode.scales():
		return Levels{}, nil
	}
	return Levels{Core: nCore - 1, Mem: nMem - 1, CPU: nCPU - 1}, nil
}

// IterationStats describes one completed iteration.
type IterationStats struct {
	Index int
	// R is the CPU share in force during the iteration.
	R float64
	// TC and TG are the CPU-side and GPU-side completion times measured
	// from the iteration start. TG includes the host→device transfer, as
	// the GPU pipeline cannot start without it.
	TC, TG time.Duration
	// WallTime is the iteration's total duration, max(TC, TG).
	WallTime time.Duration
	// Energy is the whole-system energy spent during the iteration;
	// EnergyGPU and EnergyCPU split it by measurement boundary.
	Energy    units.Energy
	EnergyGPU units.Energy
	EnergyCPU units.Energy
	// CoreLevel and MemLevel are the GPU levels at iteration end.
	CoreLevel, MemLevel int
	// CPULevel is the processor P-state at iteration end.
	CPULevel int
	// Faults counts the faults injected during the iteration by class
	// (zero unless a fault plan is armed).
	Faults faultinject.Counts
	// Recoveries counts the recovery actions the hardened control paths
	// took during the iteration (zero unless a fault plan is armed).
	Recoveries RecoveryCounts
}

// Result summarizes a framework run.
type Result struct {
	Workload string
	Mode     Mode

	Iterations []IterationStats

	TotalTime time.Duration
	Energy    units.Energy
	EnergyGPU units.Energy
	EnergyCPU units.Energy

	// SpinTime and SpinEnergy cover CPU busy-waiting on the GPU, the
	// quantities the paper's Fig. 6c emulation substitutes.
	SpinTime   time.Duration
	SpinEnergy units.Energy

	// FinalRatio is the division ratio after the last iteration.
	FinalRatio float64
	// DivisionHistory is tier 1's decision log (empty unless dividing).
	DivisionHistory []division.Observation
	// DVFSSteps counts tier 2 decisions taken.
	DVFSSteps int

	// Faults totals the faults injected over the run by class (zero
	// unless a fault plan was armed).
	Faults faultinject.Counts
	// Recoveries totals the recovery actions the hardened control paths
	// took over the run (zero unless a fault plan was armed).
	Recoveries RecoveryCounts
}

// AveragePower returns the run's mean system power.
func (r *Result) AveragePower() units.Power {
	return r.Energy.Div(r.TotalTime)
}

// EmulatedEnergyCPUThrottled reapplies the paper's Fig. 6c emulation: CPU
// energy during provably idle spin-waits is replaced by idle energy at the
// lowest P-state, modelling a CPU that could be throttled during
// asynchronous GPU phases.
func (r *Result) EmulatedEnergyCPUThrottled(idleAtLowest units.Power) units.Energy {
	return r.Energy - r.SpinEnergy + idleAtLowest.Over(r.SpinTime)
}

// Run executes the profile on the machine under cfg and returns the result.
// The machine must be freshly assembled (devices idle); Run panics
// otherwise, because reusing a half-consumed machine silently corrupts the
// energy accounting.
func Run(m *testbed.Machine, p *workload.Profile, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m.GPU.Busy() || m.CPU.Busy() {
		panic("core: Run on a busy machine")
	}
	metricRunsStarted.Inc()
	f := &framework{machine: m, profile: p, cfg: cfg}
	return f.run()
}

// framework carries one run's mutable state.
type framework struct {
	machine *testbed.Machine
	profile *workload.Profile
	cfg     Config

	divider division.Policy
	scaler  *dvfs.Scaler

	// Fault-injection state, all nil/zero unless a non-Zero FaultPlan is
	// armed. The fault-free path never touches any of it beyond nil checks.
	injector *faultinject.Injector
	gpuGuard *dvfs.Guard
	cpuGuard *dvfs.Guard
	gpuGate  func() (dvfs.TransitionResult, int)
	cpuGate  func() (dvfs.TransitionResult, int)
	// cpuLastGood is the governor's last good utilization sample.
	cpuLastGood float64
	// Totals at the start of the current iteration, for per-iteration
	// deltas.
	faultsAtIter faultinject.Counts
	recovAtIter  RecoveryCounts

	// Governor decisions tallied for one Add per metric at run end.
	gov govTally

	ratio      float64
	iterations int

	// One kernel and one CPU job are reused by every iteration (each
	// completes before the next iteration starts), and their names and the
	// callbacks that drive them are set once per run.
	kernel       gpusim.Kernel
	cpuJob       cpusim.Job
	submitKernel func()

	iterIndex  int
	iterStart  time.Duration
	iterStartE testbed.EnergySnapshot
	cpuDoneAt  time.Duration
	gpuDoneAt  time.Duration
	cpuPending bool
	gpuPending bool
	result     *Result
	dvfsTicker *sim.Ticker
	govTicker  *sim.Ticker
}

func (f *framework) run() (*Result, error) {
	m := f.machine
	cfg := f.cfg

	f.iterations = runIterations(f.profile, &cfg)
	f.result = &Result{
		Workload: f.profile.Name,
		Mode:     cfg.Mode,
		// Capped so an absurd iteration count cannot reserve memory up
		// front; append grows past the cap as usual.
		Iterations: make([]IterationStats, 0, min(f.iterations, maxPreallocIterations)),
	}
	f.kernel.Name, f.cpuJob.Name = f.profile.Name, f.profile.Name
	f.kernel.OnComplete = func() { f.sideDone(&f.gpuPending, &f.gpuDoneAt) }
	f.cpuJob.OnComplete = func() { f.sideDone(&f.cpuPending, &f.cpuDoneAt) }
	f.submitKernel = func() { m.GPU.Submit(&f.kernel) }

	// Arm fault injection. A nil or Zero plan arms nothing: the control
	// loop below then follows the exact fault-free path (the guards and
	// gates stay nil), preserving the zero-cost-off contract.
	if cfg.FaultPlan != nil && !cfg.FaultPlan.Zero() {
		f.injector = faultinject.New(*cfg.FaultPlan)
		f.gpuGate = func() (dvfs.TransitionResult, int) {
			return gateResult(f.injector.GPUTransition())
		}
		f.cpuGate = func() (dvfs.TransitionResult, int) {
			return gateResult(f.injector.CPUTransition())
		}
	}

	gpu, cpu := m.GPU, m.CPU
	lv, err := cfg.startLevels(len(gpu.CoreLevels()), len(gpu.MemLevels()), cpu.Levels())
	if err != nil {
		return nil, err
	}
	gpu.SetLevels(lv.Core, lv.Mem)
	cpu.SetLevel(lv.CPU)

	// Tier 1 setup.
	switch {
	case cfg.Mode.divides():
		if cfg.DivisionPolicy != nil {
			f.divider = cfg.DivisionPolicy
		} else {
			f.divider = division.New(cfg.Division)
		}
		f.ratio = f.divider.Ratio()
	case cfg.StaticRatio != nil:
		f.ratio = *cfg.StaticRatio
	default:
		f.ratio = 0 // all work on the GPU
	}

	// Tier 2 setup.
	if cfg.Mode.scales() {
		if cfg.Fixed8Scaler {
			f.scaler = dvfs.NewScalerFixed8(gpu.CoreLevels(), gpu.MemLevels(), cfg.GPUScaler)
		} else {
			f.scaler = dvfs.NewScaler(gpu.CoreLevels(), gpu.MemLevels(), cfg.GPUScaler)
		}
		if f.injector != nil {
			// Harden both control loops: guards gate every transition and
			// hold-last-good covers dropped samples; the failsafe is the
			// peak (performance-safe) operating point of each domain.
			f.gpuGuard = dvfs.NewGuard(
				dvfs.Decision{CoreLevel: len(gpu.CoreLevels()) - 1, MemLevel: len(gpu.MemLevels()) - 1},
				dvfs.Decision{CoreLevel: gpu.CoreLevel(), MemLevel: gpu.MemLevel()})
			f.cpuGuard = dvfs.NewGuard(
				dvfs.Decision{CoreLevel: cpu.Levels() - 1},
				dvfs.Decision{CoreLevel: cpu.Level()})
		}
		var smPolicy *dvfs.SMPolicy
		if cfg.SMScaling {
			smPolicy = dvfs.NewSMPolicy(gpu.Config().SMs)
		}
		lastCnt := gpu.Counters()
		f.dvfsTicker = m.Engine.Every(cfg.DVFSInterval, func() {
			cnt := gpu.Counters()
			w := cnt.Since(lastCnt)
			lastCnt = cnt
			uc, um := w.CoreUtil, w.MemUtil
			var meterFault faultinject.MeterFault
			if f.injector != nil {
				// The meter's fate is drawn every epoch, observed or not,
				// so fault counts never depend on who is watching.
				meterFault = f.injector.Meter()
				uc, um = f.injector.GPUSensor(uc, um)
			}
			held := false
			if f.gpuGuard != nil {
				uc, um, held = f.gpuGuard.Sample(uc, um)
			}
			if smPolicy != nil {
				gpu.SetActiveSMs(smPolicy.Next(uc, gpu.ActiveSMs()))
			}
			d := f.scaler.Step(uc, um)
			if cfg.ActuatorFilter != nil {
				d = cfg.ActuatorFilter(d)
				nc, nm := len(gpu.CoreLevels()), len(gpu.MemLevels())
				d.CoreLevel = clampInt(d.CoreLevel, 0, nc-1)
				d.MemLevel = clampInt(d.MemLevel, 0, nm-1)
			}
			if f.gpuGuard != nil {
				d = f.gpuGuard.Step(d, f.gpuGate)
			}
			gpu.SetLevels(d.CoreLevel, d.MemLevel)
			f.result.DVFSSteps++
			if cfg.OnDVFS != nil {
				cfg.OnDVFS(m.Engine.Now(), w.CoreUtil, w.MemUtil, d)
			}
			// Flight recorder: one structured record per epoch. The
			// nil check is the entire cost when recording is off; the
			// record carries exactly what the controller saw and did,
			// so a bad decision can be audited after the fact.
			if rec := telemetry.Recorder(); rec != nil {
				power := m.SystemPower().Watts()
				var faults uint64
				failsafe := false
				if f.injector != nil {
					power = f.injector.ApplyMeter(meterFault, power)
					faults = f.injector.Counts().Total()
					failsafe = f.gpuGuard.InFailsafe()
				}
				rec.Record(telemetry.EpochRecord{
					Workload:  f.profile.Name,
					Mode:      cfg.Mode.String(),
					Epoch:     f.result.DVFSSteps - 1,
					At:        m.Engine.Now(),
					UCore:     uc,
					UMem:      um,
					CoreLevel: d.CoreLevel,
					MemLevel:  d.MemLevel,
					CoreMHz:   gpu.CoreLevels()[d.CoreLevel].MHz(),
					MemMHz:    gpu.MemLevels()[d.MemLevel].MHz(),
					CPULevel:  cpu.Level(),
					Ratio:     f.ratio,
					PowerW:    power,
					Faults:    faults,
					Held:      held,
					Failsafe:  failsafe,
				})
			}
		})
		// An ondemand tick that keeps the P-state repeats itself until the
		// next event: nothing before it can change the CPU's utilization or
		// level. Such a tick skips ahead to the first governor boundary at
		// or after that event and counts the skipped decisions. An armed
		// fault plan holds the last good reading, which a skip would not
		// replay, and a governor hook sees every tick.
		skipIdle := cfg.OnCPUGovernor == nil && f.injector == nil
		f.govTicker = m.Engine.Every(GovernorInterval, func() {
			u := cpu.MaxCoreUtilization()
			util := u
			if f.injector != nil {
				// The hook sees the raw reading; ondemand decides on the
				// held one.
				u = f.injector.CPUSensor(u)
				util = f.holdCPUSample(u)
			}
			level := cpu.Level()
			next, jump := ondemand(util, level, cpu.Levels())
			f.gov.count(1, jump)
			if f.cpuGuard != nil {
				// The guard gates the P-state write like a GPU transition;
				// the unused memory domain stays at level 0.
				next = f.cpuGuard.Step(dvfs.Decision{CoreLevel: next}, f.cpuGate).CoreLevel
			}
			cpu.SetLevel(next)
			if cfg.OnCPUGovernor != nil {
				cfg.OnCPUGovernor(m.Engine.Now(), u, next)
			}
			if skipIdle && next == level {
				f.gov.count(f.govTicker.SkipIdle(), jump)
			}
		})
	}

	startSnap := m.Snapshot()
	cpuCnt0 := cpu.Counters()

	f.startIteration()
	m.Engine.Run()

	if f.dvfsTicker != nil {
		f.dvfsTicker.Stop()
	}
	if f.govTicker != nil {
		f.govTicker.Stop()
	}
	f.flushMetrics()

	endSnap := m.Snapshot()
	cpuCnt1 := cpu.Counters()
	r := f.result
	r.TotalTime = endSnap.At - startSnap.At
	r.EnergyGPU = endSnap.GPU - startSnap.GPU
	r.EnergyCPU = endSnap.CPU - startSnap.CPU
	r.Energy = r.EnergyGPU + r.EnergyCPU
	r.SpinTime = cpuCnt1.SpinTime - cpuCnt0.SpinTime
	r.SpinEnergy = cpuCnt1.SpinEnergy - cpuCnt0.SpinEnergy
	r.FinalRatio = f.ratio
	if f.divider != nil {
		r.DivisionHistory = f.divider.History()
	}
	if f.injector != nil {
		r.Faults = f.injector.Counts()
		r.Recoveries = f.recoverySnapshot()
	}
	return r, nil
}

// maxPreallocIterations caps the iteration log reserved up front.
const maxPreallocIterations = 1024

// flushMetrics adds the run's tallied counts to the package metrics, one
// Add each.
func (f *framework) flushMetrics() {
	metricIterations.Add(uint64(len(f.result.Iterations)))
	f.gov.flush()
	if f.scaler != nil {
		f.scaler.FlushMetrics()
	}
	for _, g := range []*dvfs.Guard{f.gpuGuard, f.cpuGuard} {
		if g != nil {
			g.FlushMetrics()
		}
	}
}

// gateResult adapts a faultinject transition verdict to the guard's gate
// contract.
func gateResult(o faultinject.TransitionOutcome, delay int) (dvfs.TransitionResult, int) {
	switch o {
	case faultinject.TransitionRejected:
		return dvfs.TransitionFailed, 0
	case faultinject.TransitionDelayed:
		return dvfs.TransitionDeferred, delay
	default:
		return dvfs.TransitionApplied, 0
	}
}

// recoverySnapshot sums the recovery counters across the hardened paths.
func (f *framework) recoverySnapshot() RecoveryCounts {
	var rc RecoveryCounts
	for _, g := range []*dvfs.Guard{f.gpuGuard, f.cpuGuard} {
		if g == nil {
			continue
		}
		c := g.Counts()
		rc.HeldSamples += c.HeldSamples
		rc.Retries += c.Retries
		rc.DeferredApplies += c.DeferredApplies
		rc.WatchdogTrips += c.WatchdogTrips
	}
	rc.HeldSamples += f.gov.holds
	return rc
}

// startIteration launches both sides of iteration f.iterIndex.
func (f *framework) startIteration() {
	m := f.machine
	f.iterStart = m.Engine.Now()
	f.iterStartE = m.Snapshot()
	f.cpuPending, f.gpuPending = true, true

	r := f.ratio
	gpuUnits := (1 - r) * workload.UnitsPerIteration
	cpuUnits := r * workload.UnitsPerIteration

	// Repartitioning traffic when the ratio moved since last iteration.
	if f.iterIndex > 0 && f.divider != nil {
		h := f.divider.History()
		last := h[len(h)-1]
		if bytes := f.profile.RepartitionTraffic(last.R, last.NewR); bytes > 0 {
			m.Bus.Transfer(bytes, nil)
		}
	}

	// GPU side: host→device transfer, then the kernel. A straggler
	// iteration inflates the kernel's work (it runs long) but not the
	// transfer (no extra data moves).
	if gpuUnits > 1e-9 {
		kernelUnits := gpuUnits
		if f.injector != nil {
			kernelUnits *= f.injector.Straggler()
		}
		f.kernel.Phases = f.profile.AppendGPUPhases(f.kernel.Phases[:0], kernelUnits)
		xfer := f.profile.TransferBytes(gpuUnits)
		m.Bus.Transfer(xfer, f.submitKernel)
	} else {
		f.sideDone(&f.gpuPending, &f.gpuDoneAt)
	}

	// CPU side.
	if cpuUnits > 1e-9 {
		f.cpuJob.Ops = f.profile.CPUOps(cpuUnits)
		m.CPU.Run(&f.cpuJob)
	} else {
		f.sideDone(&f.cpuPending, &f.cpuDoneAt)
	}

	f.updateSpin()
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// sideDone marks one side complete and ends the iteration when both are.
func (f *framework) sideDone(pending *bool, doneAt *time.Duration) {
	if !*pending {
		return
	}
	*pending = false
	*doneAt = f.machine.Engine.Now()
	if !f.cpuPending && !f.gpuPending {
		f.endIteration()
	} else {
		f.updateSpin()
	}
}

// updateSpin keeps one CPU core busy-waiting whenever the CPU side is done
// but the GPU side is not — the synchronous-communication behaviour that
// pins CPU utilization at 100% in the paper's benchmarks.
func (f *framework) updateSpin() {
	if !f.cfg.SpinWait {
		return
	}
	cpu := f.machine.CPU
	if f.gpuPending && !f.cpuPending {
		// CPU side finished (or has no work): one core busy-waits on the
		// synchronous GPU completion.
		cpu.SetSpin(1)
	} else {
		cpu.SetSpin(0)
	}
}

func (f *framework) endIteration() {
	m := f.machine
	f.machine.CPU.SetSpin(0)

	stats := IterationStats{
		Index:     f.iterIndex,
		R:         f.ratio,
		TC:        f.cpuDoneAt - f.iterStart,
		TG:        f.gpuDoneAt - f.iterStart,
		WallTime:  m.Engine.Now() - f.iterStart,
		CoreLevel: m.GPU.CoreLevel(),
		MemLevel:  m.GPU.MemLevel(),
		CPULevel:  m.CPU.Level(),
	}
	cur := m.Snapshot()
	stats.EnergyGPU = cur.GPU - f.iterStartE.GPU
	stats.EnergyCPU = cur.CPU - f.iterStartE.CPU
	stats.Energy = stats.EnergyGPU + stats.EnergyCPU
	if f.injector != nil {
		curF := f.injector.Counts()
		stats.Faults = curF.Sub(f.faultsAtIter)
		f.faultsAtIter = curF
		curR := f.recoverySnapshot()
		stats.Recoveries = curR.Sub(f.recovAtIter)
		f.recovAtIter = curR
	}
	f.result.Iterations = append(f.result.Iterations, stats)
	if f.cfg.OnIteration != nil {
		f.cfg.OnIteration(stats)
	}

	if f.divider != nil {
		f.ratio = f.divider.Observe(stats.TC, stats.TG)
	}

	f.iterIndex++
	if f.iterIndex < f.iterations {
		f.startIteration()
		return
	}
	// Run complete: silence tier 2 and stop the engine so callers with
	// their own periodic events (meters, monitors) regain control.
	if f.dvfsTicker != nil {
		f.dvfsTicker.Stop()
	}
	if f.govTicker != nil {
		f.govTicker.Stop()
	}
	f.machine.Engine.Stop()
}
