// Package cpusim models a multicore CPU with ACPI-style P-states (frequency
// plus voltage pairs), in the style of the AMD Phenom II X2 used on the
// GreenGPU testbed.
//
// The model captures what the GreenGPU controllers and the Linux ondemand
// governor observe and actuate: per-state frequency and voltage, whole-socket
// utilization, job execution time that scales with frequency, and CPU-side
// power at the measurement boundary of the testbed's first meter (the whole
// box minus the GPU card: platform components plus the processor).
//
// Two activity modes compose:
//
//   - a Job: a parallel region using up to Threads cores, whose execution
//     time is Ops / (cores · IPC · f);
//   - spinning: cores busy-waiting at 100% utilization without making
//     progress, modelling the synchronous CUDA waits that pin a pthread at
//     full utilization while the GPU computes (§VII-A of the paper). Spin
//     time and spin energy are accounted separately so that the paper's
//     Fig. 6c emulation — substituting lowest-frequency idle energy during
//     provably idle waits — can be reproduced exactly.
package cpusim

import (
	"fmt"
	"time"

	"greengpu/internal/sim"
	"greengpu/internal/telemetry"
	"greengpu/internal/units"
)

// Package metrics (see docs/OBSERVABILITY.md). No-ops unless telemetry is
// enabled.
var (
	metricJobs = telemetry.NewCounter("greengpu_cpusim_jobs_total",
		"CPU parallel-region jobs completed across all simulated processors.")
	metricLevelSwitches = telemetry.NewCounter("greengpu_cpusim_level_switches_total",
		"Effective P-state changes (SetLevel calls that changed the level).")
)

// PState is one frequency/voltage operating point.
type PState struct {
	Frequency units.Frequency
	Voltage   units.Voltage
}

// PowerParams parameterizes CPU-side power at the meter-1 boundary:
//
//	P = Platform + Σ_cores StaticPerCore·(V/Vmax) +
//	               Σ_busy  DynPerCore·(f/fmax)·(V/Vmax)²
//
// Platform covers the motherboard, DRAM and disk, which the wall meter sees
// regardless of CPU activity.
type PowerParams struct {
	Platform      units.Power
	StaticPerCore units.Power // leakage per core at Vmax
	DynPerCore    units.Power // switching power per fully busy core at fmax, Vmax
}

// Config describes a CPU device.
type Config struct {
	Name  string
	Cores int
	IPC   float64 // sustained operations per core per cycle

	// PStates is the ladder of operating points, sorted by ascending
	// frequency. The device boots at the lowest state.
	PStates []PState

	Power PowerParams
}

// Validate reports the first problem with the configuration, if any.
func (c *Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("cpusim: %q: Cores must be positive", c.Name)
	case c.IPC <= 0:
		return fmt.Errorf("cpusim: %q: IPC must be positive", c.Name)
	case len(c.PStates) == 0:
		return fmt.Errorf("cpusim: %q: need at least one P-state", c.Name)
	}
	for i, ps := range c.PStates {
		if ps.Frequency <= 0 || ps.Voltage <= 0 {
			return fmt.Errorf("cpusim: %q: P-state %d must have positive frequency and voltage", c.Name, i)
		}
		if i > 0 && ps.Frequency <= c.PStates[i-1].Frequency {
			return fmt.Errorf("cpusim: %q: P-state frequencies must be strictly ascending", c.Name)
		}
	}
	return nil
}

// Job is a parallel region executed on the CPU.
type Job struct {
	Name       string
	Ops        float64 // total operations across all threads
	Threads    int     // cores used; clamped to the core count
	OnComplete func()

	started  time.Duration
	finished time.Duration
}

// ExecTime returns the job's execution time. Valid once completed.
func (j *Job) ExecTime() time.Duration { return j.finished - j.started }

// Counters is a snapshot of cumulative CPU accounting.
type Counters struct {
	At            time.Duration
	Busy          time.Duration // ∫ utilization dt (whole-socket average)
	Energy        units.Energy
	SpinTime      time.Duration // wall time with at least one spinning core
	SpinEnergy    units.Energy  // ∫ P dt while spinning and not running a job
	JobsCompleted int
}

// Window summarizes CPU activity between two snapshots.
type Window struct {
	Duration time.Duration
	Util     float64
	Energy   units.Energy
}

// Since returns the activity window from snapshot a to snapshot c.
func (c Counters) Since(a Counters) Window {
	dt := c.At - a.At
	w := Window{Duration: dt, Energy: c.Energy - a.Energy}
	if dt > 0 {
		w.Util = units.Clamp(float64(c.Busy-a.Busy)/float64(dt), 0, 1)
	}
	return w
}

// CPU is a simulated processor attached to a sim.Engine.
type CPU struct {
	cfg    Config
	engine *sim.Engine

	level     int
	spinCores int
	job       *jobExec

	// Per-P-state derived constants, built once at construction so the
	// power and job-timing hot paths do table lookups instead of
	// re-deriving voltage/frequency ratio chains. Entries are computed
	// with exactly the operation order the formulas used inline, so
	// results are bit-identical. The busy-core and thread dimensions are
	// tabulated too (both bounded by the core count) because float
	// multiplication is non-associative: factoring the ratios out of the
	// product would change the grouping, and the last bit with it.
	// The 2-D tables are flattened row-major with stride Cores+1.
	basePower []units.Power // Platform + static leakage at P-state
	dynPower  []units.Power // [state·stride+busyCores] dynamic switching power
	jobDenom  []float64     // [state·stride+threads] ops/s: threads·IPC·f
	stride    int

	jobEnd func() // bound job-completion callback, allocated once
	jobBuf jobExec

	lastUpdate time.Duration
	busy       time.Duration
	energy     units.Energy
	spinTime   time.Duration
	spinEnergy units.Energy
	completed  int
}

type jobExec struct {
	job      *Job
	cores    int
	remOps   float64
	segStart time.Duration
	segT     time.Duration
	endEvent sim.Event
}

// New creates a CPU bound to the engine, booting at the lowest P-state.
// It panics on an invalid configuration; use Config.Validate to check first.
func New(e *sim.Engine, cfg Config) *CPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &CPU{cfg: cfg, engine: e, lastUpdate: e.Now()}
	c.jobEnd = func() {
		c.accrue()
		c.finishJob()
	}
	var t Tables
	fillTables(&cfg, &t)
	c.basePower, c.dynPower, c.jobDenom, c.stride = t.BasePower, t.DynPower, t.JobDenom, t.Stride
	return c
}

// Config returns the device configuration.
func (c *CPU) Config() Config { return c.cfg }

// Levels returns the number of P-states.
func (c *CPU) Levels() int { return len(c.cfg.PStates) }

// Level returns the index of the current P-state.
func (c *CPU) Level() int { return c.level }

// Frequency returns the current clock frequency.
func (c *CPU) Frequency() units.Frequency { return c.cfg.PStates[c.level].Frequency }

// Voltage returns the current supply voltage.
func (c *CPU) Voltage() units.Voltage { return c.cfg.PStates[c.level].Voltage }

// Busy reports whether a job is executing.
func (c *CPU) Busy() bool { return c.job != nil }

// SetLevel changes the P-state, re-timing any in-flight job.
func (c *CPU) SetLevel(i int) {
	if i < 0 || i >= len(c.cfg.PStates) {
		panic(fmt.Sprintf("cpusim: P-state %d out of range [0,%d)", i, len(c.cfg.PStates)))
	}
	if i == c.level {
		return
	}
	metricLevelSwitches.Inc()
	c.accrue()
	c.level = i
	if c.job != nil {
		c.carryOver()
		c.startSegment()
	}
}

// SetSpin sets the number of cores busy-waiting. Spinning cores consume
// full dynamic power and show 100% utilization but make no progress.
// The count is clamped to the core count.
func (c *CPU) SetSpin(cores int) {
	if cores < 0 {
		cores = 0
	}
	if cores > c.cfg.Cores {
		cores = c.cfg.Cores
	}
	if cores == c.spinCores {
		return
	}
	c.accrue()
	c.spinCores = cores
}

// SpinCores returns the number of cores currently spinning.
func (c *CPU) SpinCores() int { return c.spinCores }

// Run starts a job. It panics if a job is already executing: the GreenGPU
// execution structure runs one parallel region at a time per device.
func (c *CPU) Run(j *Job) {
	if j == nil {
		panic("cpusim: Run(nil)")
	}
	if c.job != nil {
		panic(fmt.Sprintf("cpusim: Run(%q) while %q is executing", j.Name, c.job.job.Name))
	}
	if j.Ops < 0 {
		panic(fmt.Sprintf("cpusim: job %q has negative ops", j.Name))
	}
	cores := j.Threads
	if cores <= 0 || cores > c.cfg.Cores {
		cores = c.cfg.Cores
	}
	c.accrue()
	j.started = c.engine.Now()
	// One job runs at a time, so its execution state lives in a reused
	// buffer rather than a fresh allocation.
	c.jobBuf = jobExec{job: j, cores: cores, remOps: j.Ops}
	c.job = &c.jobBuf
	c.startSegment()
}

// Utilization returns the instantaneous whole-socket utilization: the
// fraction of cores either executing a job or spinning.
func (c *CPU) Utilization() float64 {
	return float64(c.busyCores()) / float64(c.cfg.Cores)
}

// MaxCoreUtilization returns the highest per-core utilization, which is what
// the ondemand governor keys off: 1 if any core is busy or spinning.
func (c *CPU) MaxCoreUtilization() float64 {
	if c.busyCores() > 0 {
		return 1
	}
	return 0
}

func (c *CPU) busyCores() int {
	n := c.spinCores
	if c.job != nil {
		n += c.job.cores
	}
	if n > c.cfg.Cores {
		n = c.cfg.Cores
	}
	return n
}

// InstantPower returns the CPU-side power draw at the current instant.
func (c *CPU) InstantPower() units.Power {
	return c.powerAt(c.level, c.busyCores())
}

// IdlePowerAt returns the CPU-side power with all cores idle at the given
// P-state. Used by the paper's Fig. 6c emulation, which substitutes this
// value (at the lowest state) for measured power during idle spin-waits.
func (c *CPU) IdlePowerAt(level int) units.Power {
	if level < 0 || level >= len(c.cfg.PStates) {
		panic(fmt.Sprintf("cpusim: P-state %d out of range", level))
	}
	return c.powerAt(level, 0)
}

func (c *CPU) powerAt(level, busyCores int) units.Power {
	return c.basePower[level] + c.dynPower[level*c.stride+busyCores]
}

// Counters returns a snapshot of cumulative accounting as of now.
func (c *CPU) Counters() Counters {
	c.accrue()
	return Counters{
		At:            c.lastUpdate,
		Busy:          c.busy,
		Energy:        c.energy,
		SpinTime:      c.spinTime,
		SpinEnergy:    c.spinEnergy,
		JobsCompleted: c.completed,
	}
}

// JobTime predicts the execution time of ops operations on the given number
// of threads at P-state level, without running anything.
func (c *CPU) JobTime(ops float64, threads, level int) time.Duration {
	if threads <= 0 || threads > c.cfg.Cores {
		threads = c.cfg.Cores
	}
	denom := c.jobDenom[level*c.stride+threads]
	if ops <= 0 {
		return 0
	}
	return units.Seconds(ops / denom)
}

func (c *CPU) accrue() {
	now := c.engine.Now()
	dt := now - c.lastUpdate
	if dt <= 0 {
		return
	}
	u := c.Utilization()
	p := c.InstantPower()
	c.busy += time.Duration(u * float64(dt))
	c.energy += p.Over(dt)
	if c.spinCores > 0 && c.job == nil {
		c.spinTime += dt
		c.spinEnergy += p.Over(dt)
	}
	c.lastUpdate = now
}

func (c *CPU) carryOver() {
	je := c.job
	c.engine.Cancel(je.endEvent)
	if je.segT <= 0 {
		return
	}
	frac := units.Clamp(float64(c.engine.Now()-je.segStart)/float64(je.segT), 0, 1)
	je.remOps *= 1 - frac
}

func (c *CPU) startSegment() {
	je := c.job
	t := c.JobTime(je.remOps, je.cores, c.level)
	je.segStart = c.engine.Now()
	je.segT = t
	if t <= 0 {
		c.finishJob()
		return
	}
	je.endEvent = c.engine.After(t, c.jobEnd)
}

func (c *CPU) finishJob() {
	c.accrue()
	j := c.job.job
	j.finished = c.engine.Now()
	c.job = nil
	c.completed++
	metricJobs.Inc()
	if j.OnComplete != nil {
		j.OnComplete()
	}
}
