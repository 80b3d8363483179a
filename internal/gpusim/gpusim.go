// Package gpusim models a CUDA-class discrete GPU with independently
// clocked core and memory domains, in the style of the GeForce 8800 GTX used
// on the GreenGPU testbed.
//
// The model is deliberately at the granularity the GreenGPU algorithms
// observe: per-domain frequency levels, per-domain utilization counters
// (defined exactly as Nvidia defines them for nvidia-smi: core utilization is
// busy cycles over total cycles, memory utilization is achieved bandwidth
// over rated peak bandwidth), wall-clock kernel execution time, and card
// power. Kernels are sequences of phases; a phase carries a compute demand
// (arithmetic operations spread across all stream processors) and a memory
// demand (bytes moved through the device memory system). Phase execution
// time follows a roofline-with-overlap model:
//
//	Tc = ops   / (SPs · IPC · f_core)
//	Tm = bytes / (bytesPerMemCycle · f_mem)
//	T  = max(Tc, Tm, Ts) + γ·min(Tc, Tm)
//
// where γ ∈ [0,1] captures imperfect compute/memory overlap and Ts is a
// frequency-independent latency floor (memory/PCIe latency chains,
// synchronization, launch gaps) that overlaps with both domains' busy time.
// Utilizations follow as u_core = Tc/T and u_mem = Tm/T.
//
// The latency floor is what makes the model reproduce the paper's two
// motivating observations (§III-A): while a domain's busy time sits below
// the critical path (Tc < max(Tm, Ts)), throttling that domain stretches
// only its busy time — execution time is unchanged and its utilization
// simply rises, so energy is saved for free; once the busy time crosses the
// critical path the domain becomes the bottleneck and further throttling
// hurts performance proportionally — the knee. It is also what lets real
// kernels sit at "medium" or "low" utilization on both domains
// simultaneously (Table II of the paper).
//
// Frequency changes may occur mid-phase; remaining work is carried over and
// re-timed at the new clocks, so the simulation is exact under arbitrary
// DVFS schedules. All accounting (busy-time integrals and energy) is
// analytic, not sampled.
package gpusim

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
	metricKernels = telemetry.NewCounter("greengpu_gpusim_kernels_total",
		"GPU kernels completed across all simulated devices.")
	metricLevelSwitches = telemetry.NewCounter("greengpu_gpusim_level_switches_total",
		"Effective GPU frequency-level changes (SetLevels calls that changed a domain).")
)

// PowerParams parameterizes card power at the measurement boundary of the
// GreenGPU testbed's second meter (the dedicated ATX supply feeding the
// card, i.e. including supply losses and board overhead).
//
// Card power is composed as
//
//	P = Board + (f_core/f_core_peak)·(CoreClockTree + CoreDynamic·u_core)
//	          + (f_mem /f_mem_peak) ·(MemClockTree  + MemDynamic ·u_mem)
//
// The clock-tree terms burn power whenever the domain is clocked, even when
// idle. This is what makes frequency-only scaling (no voltage control, as on
// the 8800 GTX) save energy on under-utilized domains.
type PowerParams struct {
	Board         units.Power // supply losses, fans, VRMs, misc board logic
	CoreClockTree units.Power // core-domain clock distribution at peak clock
	CoreDynamic   units.Power // core-domain switching power at peak clock, u=1
	MemClockTree  units.Power // memory-domain clock distribution at peak clock
	MemDynamic    units.Power // memory-domain switching power at peak clock, u=1

	// CoreGatable is the fraction of core-domain power (clock tree and
	// dynamic alike) that is eliminated when stream multiprocessors are
	// power-gated, in [0,1]. Zero (the default) models a device without
	// per-SM gating, like the G80; a positive value enables the
	// core-count-throttling comparison against Hong & Kim-style
	// policies (the paper's related work [9] and [12]).
	CoreGatable float64
}

// Config describes a GPU device.
type Config struct {
	Name string

	SMs      int     // stream multiprocessors
	SPsPerSM int     // stream processors per SM
	IPC      float64 // sustained operations per SP per core cycle

	// CoreLevels and MemLevels are the selectable frequency ladders,
	// sorted ascending. The device boots at the lowest level of each
	// domain, matching the default state of the testbed card.
	CoreLevels []units.Frequency
	MemLevels  []units.Frequency

	// BytesPerMemCycle converts memory clock to rated peak bandwidth
	// (bus width × pumping). The 8800 GTX's 384-bit GDDR3 at 900 MHz
	// double-pumped gives 86.4 GB/s, i.e. 96 bytes per memory-clock cycle.
	BytesPerMemCycle float64

	// OverlapGamma is the γ in T = max + γ·min. Zero means perfect
	// compute/memory overlap; one means fully serialized.
	OverlapGamma float64

	Power PowerParams
}

// Validate reports the first problem with the configuration, if any.
func (c *Config) Validate() error {
	switch {
	case c.SMs <= 0 || c.SPsPerSM <= 0:
		return fmt.Errorf("gpusim: %q: SMs and SPsPerSM must be positive", c.Name)
	case c.IPC <= 0:
		return fmt.Errorf("gpusim: %q: IPC must be positive", c.Name)
	case len(c.CoreLevels) == 0 || len(c.MemLevels) == 0:
		return fmt.Errorf("gpusim: %q: need at least one core and one memory level", c.Name)
	case c.BytesPerMemCycle <= 0:
		return fmt.Errorf("gpusim: %q: BytesPerMemCycle must be positive", c.Name)
	case c.OverlapGamma < 0 || c.OverlapGamma > 1:
		return fmt.Errorf("gpusim: %q: OverlapGamma must be in [0,1]", c.Name)
	case c.Power.CoreGatable < 0 || c.Power.CoreGatable > 1:
		return fmt.Errorf("gpusim: %q: CoreGatable must be in [0,1]", c.Name)
	}
	for _, ladder := range [][]units.Frequency{c.CoreLevels, c.MemLevels} {
		for i, f := range ladder {
			if f <= 0 {
				return fmt.Errorf("gpusim: %q: non-positive frequency level", c.Name)
			}
			if i > 0 && ladder[i] <= ladder[i-1] {
				return fmt.Errorf("gpusim: %q: frequency levels must be strictly ascending", c.Name)
			}
		}
	}
	return nil
}

// Phase is one homogeneous stretch of kernel execution.
type Phase struct {
	Label string
	Ops   float64 // arithmetic operations, spread across all SPs
	Bytes float64 // bytes moved through device memory
	Stall float64 // frequency-independent latency floor, in seconds
}

// Kernel is a unit of work submitted to the GPU: an ordered list of phases
// plus an optional completion callback.
type Kernel struct {
	Name       string
	Phases     []Phase
	OnComplete func()

	submitted time.Duration
	started   time.Duration
	finished  time.Duration
}

// QueueTime returns how long the kernel waited before execution began.
// Valid once the kernel has started.
func (k *Kernel) QueueTime() time.Duration { return k.started - k.submitted }

// ExecTime returns the kernel's execution time (start to finish). Valid once
// the kernel has completed.
func (k *Kernel) ExecTime() time.Duration { return k.finished - k.started }

// Counters is a snapshot of the device's cumulative accounting. Utilization
// over a window is obtained by differencing two snapshots: the core
// utilization over (a,b] is (b.CoreBusy-a.CoreBusy)/(b.At-a.At), and likewise
// for memory — exactly the busy-cycles-over-total-cycles and
// achieved-over-peak-bandwidth definitions.
type Counters struct {
	At               time.Duration
	CoreBusy         time.Duration // ∫ u_core dt
	MemBusy          time.Duration // ∫ u_mem dt
	Energy           units.Energy  // ∫ P dt
	KernelsCompleted int
}

// Window summarizes device activity between two snapshots.
type Window struct {
	Duration time.Duration
	CoreUtil float64
	MemUtil  float64
	Energy   units.Energy
}

// Since returns the activity window from earlier snapshot a to snapshot c.
func (c Counters) Since(a Counters) Window {
	dt := c.At - a.At
	w := Window{Duration: dt, Energy: c.Energy - a.Energy}
	if dt > 0 {
		w.CoreUtil = units.Clamp(float64(c.CoreBusy-a.CoreBusy)/float64(dt), 0, 1)
		w.MemUtil = units.Clamp(float64(c.MemBusy-a.MemBusy)/float64(dt), 0, 1)
	}
	return w
}

// GPU is a simulated device attached to a sim.Engine.
type GPU struct {
	cfg    Config
	engine *sim.Engine

	coreLevel int
	memLevel  int
	activeSMs int

	// Per-frequency-level derived constants, built once at construction
	// (core tables rebuilt on SetActiveSMs) so advance/power hot paths do
	// table lookups instead of re-deriving multiplication chains. The
	// entries are computed with exactly the operation order the formulas
	// used inline, so results are bit-identical.
	coreDenom  []float64 // ops/s at core level: activeSMs·SPsPerSM·IPC·f
	memDenom   []float64 // bytes/s at mem level: BytesPerMemCycle·f
	coreFRatio []float64 // f_core(level)/f_core(peak)
	memFRatio  []float64 // f_mem(level)/f_mem(peak)
	coreScale  float64   // gating factor (1-CoreGatable)+CoreGatable·activeSMs/SMs

	phaseEnd func() // bound onPhaseEnd, allocated once
	execBuf  execState

	queue   []*Kernel
	running *execState

	lastUpdate time.Duration
	coreBusy   time.Duration
	memBusy    time.Duration
	energy     units.Energy
	completed  int
}

// execState tracks the in-flight phase of the head-of-queue kernel.
type execState struct {
	kernel   *Kernel
	phaseIdx int

	// Remaining demand at the start of the current timing segment.
	remOps   float64
	remBytes float64
	remStall float64

	segStart time.Duration
	segT     time.Duration
	uCore    float64
	uMem     float64

	endEvent sim.Event
}

// New creates a GPU bound to the engine. The device boots at the lowest
// frequency level of both domains. It panics on an invalid configuration;
// use Config.Validate to check first.
func New(e *sim.Engine, cfg Config) *GPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := &GPU{cfg: cfg, engine: e, activeSMs: cfg.SMs, lastUpdate: e.Now()}
	g.phaseEnd = g.onPhaseEnd
	nc, nm := len(cfg.CoreLevels), len(cfg.MemLevels)
	buf := make([]float64, 2*nc+2*nm) // one backing array for all four tables
	g.coreDenom, buf = buf[:nc:nc], buf[nc:]
	g.coreFRatio, buf = buf[:nc:nc], buf[nc:]
	g.memDenom, buf = buf[:nm:nm], buf[nm:]
	g.memFRatio = buf[:nm:nm]
	fillCoreFRatio(&cfg, g.coreFRatio)
	fillMemTables(&cfg, g.memDenom, g.memFRatio)
	g.rebuildCoreTables()
	return g
}

// rebuildCoreTables refreshes the derived constants that depend on the
// active-SM count. Called at construction and from SetActiveSMs.
func (g *GPU) rebuildCoreTables() {
	g.coreScale = fillCoreTables(&g.cfg, g.activeSMs, g.coreDenom)
}

// Config returns the device configuration.
func (g *GPU) Config() Config { return g.cfg }

// CoreLevels returns the core-domain frequency ladder.
func (g *GPU) CoreLevels() []units.Frequency { return g.cfg.CoreLevels }

// MemLevels returns the memory-domain frequency ladder.
func (g *GPU) MemLevels() []units.Frequency { return g.cfg.MemLevels }

// CoreLevel returns the index of the current core frequency level.
func (g *GPU) CoreLevel() int { return g.coreLevel }

// MemLevel returns the index of the current memory frequency level.
func (g *GPU) MemLevel() int { return g.memLevel }

// CoreFrequency returns the current core clock.
func (g *GPU) CoreFrequency() units.Frequency { return g.cfg.CoreLevels[g.coreLevel] }

// MemFrequency returns the current memory clock.
func (g *GPU) MemFrequency() units.Frequency { return g.cfg.MemLevels[g.memLevel] }

// PeakBandwidth returns the rated bandwidth at the current memory clock.
func (g *GPU) PeakBandwidth() units.Bandwidth {
	return units.Bandwidth(g.memDenom[g.memLevel])
}

// Busy reports whether a kernel is executing.
func (g *GPU) Busy() bool { return g.running != nil }

// QueueLen returns the number of kernels waiting behind the running one.
func (g *GPU) QueueLen() int { return len(g.queue) }

// SetLevels changes the core and memory frequency levels, re-timing any
// in-flight phase. Out-of-range indices panic.
func (g *GPU) SetLevels(core, mem int) {
	if core < 0 || core >= len(g.cfg.CoreLevels) {
		panic(fmt.Sprintf("gpusim: core level %d out of range [0,%d)", core, len(g.cfg.CoreLevels)))
	}
	if mem < 0 || mem >= len(g.cfg.MemLevels) {
		panic(fmt.Sprintf("gpusim: mem level %d out of range [0,%d)", mem, len(g.cfg.MemLevels)))
	}
	if core == g.coreLevel && mem == g.memLevel {
		return
	}
	metricLevelSwitches.Inc()
	g.accrue()
	g.coreLevel, g.memLevel = core, mem
	if g.running != nil {
		g.carryOver()
		g.startSegment()
	}
}

// ActiveSMs returns the number of powered stream multiprocessors.
func (g *GPU) ActiveSMs() int { return g.activeSMs }

// SetActiveSMs power-gates all but n stream multiprocessors, re-timing any
// in-flight phase: compute throughput scales with the active count, and
// the gatable share of core-domain power disappears with the gated SMs.
// n outside [1, SMs] panics.
func (g *GPU) SetActiveSMs(n int) {
	if n < 1 || n > g.cfg.SMs {
		panic(fmt.Sprintf("gpusim: active SMs %d out of range [1,%d]", n, g.cfg.SMs))
	}
	if n == g.activeSMs {
		return
	}
	g.accrue()
	g.activeSMs = n
	g.rebuildCoreTables()
	if g.running != nil {
		g.carryOver()
		g.startSegment()
	}
}

// SetCoreLevel changes only the core frequency level.
func (g *GPU) SetCoreLevel(i int) { g.SetLevels(i, g.memLevel) }

// SetMemLevel changes only the memory frequency level.
func (g *GPU) SetMemLevel(i int) { g.SetLevels(g.coreLevel, i) }

// Submit enqueues a kernel. It starts immediately if the device is idle.
func (g *GPU) Submit(k *Kernel) {
	if k == nil {
		panic("gpusim: Submit(nil)")
	}
	k.submitted = g.engine.Now()
	if g.running == nil {
		g.start(k)
		return
	}
	g.queue = append(g.queue, k)
}

// InstantPower returns the device power draw at the current instant.
func (g *GPU) InstantPower() units.Power {
	uc, um := 0.0, 0.0
	if g.running != nil {
		uc, um = g.running.uCore, g.running.uMem
	}
	return g.power(uc, um)
}

// Counters returns a snapshot of cumulative accounting as of now.
func (g *GPU) Counters() Counters {
	g.accrue()
	return Counters{
		At:               g.lastUpdate,
		CoreBusy:         g.coreBusy,
		MemBusy:          g.memBusy,
		Energy:           g.energy,
		KernelsCompleted: g.completed,
	}
}

// Utilization returns the instantaneous core and memory utilizations.
func (g *GPU) Utilization() (core, mem float64) {
	if g.running == nil {
		return 0, 0
	}
	return g.running.uCore, g.running.uMem
}

// PhaseTime computes the execution time of a phase with the given demands at
// frequency levels (core, mem). It is exported so workload calibration can
// invert the timing model.
func (g *GPU) PhaseTime(ops, bytes, stall float64, core, mem int) time.Duration {
	tc, tm := g.demandTimes(ops, bytes, core, mem)
	return UnifyPhaseTime(tc, tm, stall, g.cfg.OverlapGamma)
}

// PhaseUtilization returns the (u_core, u_mem) a phase would exhibit at the
// given frequency levels.
func (g *GPU) PhaseUtilization(ops, bytes, stall float64, core, mem int) (float64, float64) {
	tc, tm := g.demandTimes(ops, bytes, core, mem)
	t := UnifyPhaseTime(tc, tm, stall, g.cfg.OverlapGamma)
	if t <= 0 {
		return 0, 0
	}
	return units.Clamp(tc.Seconds()/t.Seconds(), 0, 1), units.Clamp(tm.Seconds()/t.Seconds(), 0, 1)
}

func (g *GPU) demandTimes(ops, bytes float64, core, mem int) (tc, tm time.Duration) {
	return demandTimesAt(ops, bytes, g.coreDenom[core], g.memDenom[mem])
}

func (g *GPU) power(uc, um float64) units.Power {
	return powerAt(&g.cfg.Power, g.coreFRatio[g.coreLevel], g.memFRatio[g.memLevel], g.coreScale, uc, um)
}

// accrue integrates utilization and energy from lastUpdate to now.
func (g *GPU) accrue() {
	now := g.engine.Now()
	dt := now - g.lastUpdate
	if dt <= 0 {
		return
	}
	uc, um := 0.0, 0.0
	if g.running != nil {
		uc, um = g.running.uCore, g.running.uMem
	}
	g.coreBusy += time.Duration(uc * float64(dt))
	g.memBusy += time.Duration(um * float64(dt))
	g.energy += g.power(uc, um).Over(dt)
	g.lastUpdate = now
}

// carryOver folds elapsed segment progress into the remaining demand.
func (g *GPU) carryOver() {
	es := g.running
	g.engine.Cancel(es.endEvent)
	if es.segT <= 0 {
		return
	}
	frac := float64(g.engine.Now()-es.segStart) / float64(es.segT)
	frac = units.Clamp(frac, 0, 1)
	es.remOps *= 1 - frac
	es.remBytes *= 1 - frac
	es.remStall *= 1 - frac
}

func (g *GPU) start(k *Kernel) {
	g.accrue()
	k.started = g.engine.Now()
	// One kernel runs at a time, so its execution state lives in a reused
	// buffer rather than a fresh allocation.
	g.execBuf = execState{kernel: k}
	g.running = &g.execBuf
	g.loadPhase()
}

// loadPhase initializes remaining demand from the current phase index and
// starts a timing segment. Kernels with no phases complete immediately.
func (g *GPU) loadPhase() {
	es := g.running
	if es.phaseIdx >= len(es.kernel.Phases) {
		g.finishKernel()
		return
	}
	ph := es.kernel.Phases[es.phaseIdx]
	if ph.Ops < 0 || ph.Bytes < 0 || ph.Stall < 0 {
		panic(fmt.Sprintf("gpusim: kernel %q phase %d has negative demand", es.kernel.Name, es.phaseIdx))
	}
	es.remOps, es.remBytes, es.remStall = ph.Ops, ph.Bytes, ph.Stall
	g.startSegment()
}

// startSegment times the remaining demand at current clocks and schedules
// the phase-completion event.
func (g *GPU) startSegment() {
	es := g.running
	tc, tm := g.demandTimes(es.remOps, es.remBytes, g.coreLevel, g.memLevel)
	t := UnifyPhaseTime(tc, tm, es.remStall, g.cfg.OverlapGamma)
	es.segStart = g.engine.Now()
	es.segT = t
	if t <= 0 {
		es.uCore, es.uMem = 0, 0
		g.phaseDone()
		return
	}
	es.uCore = units.Clamp(tc.Seconds()/t.Seconds(), 0, 1)
	es.uMem = units.Clamp(tm.Seconds()/t.Seconds(), 0, 1)
	es.endEvent = g.engine.After(t, g.phaseEnd)
}

func (g *GPU) onPhaseEnd() {
	g.accrue()
	g.phaseDone()
}

func (g *GPU) phaseDone() {
	es := g.running
	es.remOps, es.remBytes, es.remStall = 0, 0, 0
	es.phaseIdx++
	if es.phaseIdx < len(es.kernel.Phases) {
		g.loadPhase()
		return
	}
	g.finishKernel()
}

func (g *GPU) finishKernel() {
	g.accrue()
	k := g.running.kernel
	k.finished = g.engine.Now()
	g.running = nil
	g.completed++
	metricKernels.Inc()
	if len(g.queue) > 0 {
		next := g.queue[0]
		g.queue = g.queue[1:]
		g.start(next)
	}
	if k.OnComplete != nil {
		k.OnComplete()
	}
}
