// Package faultinject is a deterministic, seed-derived fault engine for the
// simulated GreenGPU testbed.
//
// The paper's controller ran against real, misbehaving hardware: nvidia-smi
// utilization samples arrive noisy, stale, or not at all; nvidia-settings
// clock writes silently fail or land late; the Wattsup meter drops samples
// and spikes; a kernel occasionally runs far longer than its siblings
// (thermal throttling, ECC retries, a contended host). The DVFS-measurement
// literature (Mei et al.; Wang & Chu — see PAPERS.md) documents exactly
// these artifacts as the dominant practical obstacle to utilization-driven
// scaling. This package reproduces them on the otherwise perfectly
// well-behaved simulator so the recovery paths in dvfs, governor, and core
// are actually exercised.
//
// # Determinism
//
// Every fault decision is a pure function of (Plan, draw index): each fault
// class owns a channel with its own seed, derived statelessly from the
// plan's base seed with parallel.TaskSeed (the same SplitMix64 derivation
// the sensor-noise ablation introduced), and consecutive decisions on a
// channel consume consecutive parallel.Uniform draws. No shared PRNG stream
// exists, so an injected fault sequence is byte-identical no matter how
// many experiment workers run concurrently or in what order runs execute.
// A Plan is plain data — the run cache fingerprints it into the point key,
// so faulty runs memoize exactly like healthy ones.
//
// The GPU-sensor noise channel keeps the exact seed derivation and draw
// order of the original sensor-noise ablation
// (TaskSeed(seed^Float64bits(sigma), 0); two draws per sample, core before
// memory), so rewiring that ablation through this package left its CSV
// byte-identical — pinned by a golden-diff test in internal/experiments.
//
// # Fault model
//
// Sensor faults (GPU core/mem utilization, CPU utilization): noisy readings
// (uniform ±sigma, clamped to [0,1]), dropped readings (delivered as NaN —
// the consumer must cope), and stale readings (the previous delivered value
// is repeated). Actuator faults: a frequency transition is rejected (the
// clock sticks at the old level) or delayed (it lands N epochs late).
// Meter faults: a power sample is dropped (NaN) or spiked (multiplied).
// Kernel stragglers: one iteration's GPU work is inflated by a factor,
// stretching its execution time. Injection perturbs only what the
// controllers observe and actuate — energy ground truth stays analytic, as
// with the real meters, whose dropouts lied about consumption without
// changing it.
package faultinject

import (
	"fmt"
	"math"

	"greengpu/internal/parallel"
	"greengpu/internal/units"
)

// Plan parameterizes every fault class. It is plain data: the zero value
// injects nothing, all randomness derives from Seed, and the run cache can
// fingerprint it field by field. Rates are per-opportunity probabilities in
// [0,1] (per sensor sample, per transition attempt, per meter sample, per
// iteration).
type Plan struct {
	// Seed is the base seed every per-class channel seed derives from.
	Seed uint64

	// GPUNoiseSigma adds uniform ±sigma noise to every delivered GPU
	// utilization sample (core and memory), clamped to [0,1].
	GPUNoiseSigma float64
	// GPUDropRate drops a GPU utilization sample entirely: both domains
	// read NaN, modelling a failed nvidia-smi poll.
	GPUDropRate float64
	// GPUStaleRate repeats the previously delivered GPU sample, modelling
	// a counter file that did not update between polls.
	GPUStaleRate float64

	// CPUNoiseSigma, CPUDropRate and CPUStaleRate are the CPU-governor
	// sensor analogues of the GPU knobs above.
	CPUNoiseSigma float64
	CPUDropRate   float64
	CPUStaleRate  float64

	// TransitionRejectRate silently fails a frequency-transition request
	// (GPU level pair or CPU P-state): the clock sticks at the old level,
	// modelling an nvidia-settings write that returned success but did
	// nothing.
	TransitionRejectRate float64
	// TransitionDelayRate delays a transition by TransitionDelayEpochs
	// scaling epochs before it takes effect.
	TransitionDelayRate float64
	// TransitionDelayEpochs is the delay length; must be positive when
	// TransitionDelayRate is.
	TransitionDelayEpochs int

	// MeterDropRate drops a power-meter sample (NaN), as Wattsup loggers
	// routinely do.
	MeterDropRate float64
	// MeterSpikeRate multiplies a power-meter sample by MeterSpikeFactor,
	// modelling serial-line glitches.
	MeterSpikeRate   float64
	MeterSpikeFactor float64

	// StragglerRate inflates one iteration's GPU work (ops, bytes and
	// stall alike) by StragglerFactor, stretching its execution time the
	// way thermal throttling or ECC retries stretch a real kernel.
	StragglerRate   float64
	StragglerFactor float64
}

// Default returns the moderate-intensity, all-classes plan the resilience
// study and `make chaos` run under.
func Default(seed uint64) Plan {
	return Plan{
		Seed:                  seed,
		GPUNoiseSigma:         0.05,
		GPUDropRate:           0.05,
		GPUStaleRate:          0.05,
		CPUNoiseSigma:         0.05,
		CPUDropRate:           0.05,
		CPUStaleRate:          0.05,
		TransitionRejectRate:  0.10,
		TransitionDelayRate:   0.05,
		TransitionDelayEpochs: 2,
		MeterDropRate:         0.05,
		MeterSpikeRate:        0.02,
		MeterSpikeFactor:      3,
		StragglerRate:         0.05,
		StragglerFactor:       1.5,
	}
}

// Validate reports the first problem with the plan, if any.
func (p *Plan) Validate() error {
	rate := func(name string, v float64) error {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("faultinject: %s = %v, must be in [0,1]", name, v)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"GPUNoiseSigma", p.GPUNoiseSigma},
		{"GPUDropRate", p.GPUDropRate},
		{"GPUStaleRate", p.GPUStaleRate},
		{"CPUNoiseSigma", p.CPUNoiseSigma},
		{"CPUDropRate", p.CPUDropRate},
		{"CPUStaleRate", p.CPUStaleRate},
		{"TransitionRejectRate", p.TransitionRejectRate},
		{"TransitionDelayRate", p.TransitionDelayRate},
		{"MeterDropRate", p.MeterDropRate},
		{"MeterSpikeRate", p.MeterSpikeRate},
		{"StragglerRate", p.StragglerRate},
	} {
		if err := rate(c.name, c.v); err != nil {
			return err
		}
	}
	if p.TransitionDelayEpochs < 0 {
		return fmt.Errorf("faultinject: TransitionDelayEpochs = %d, must be non-negative", p.TransitionDelayEpochs)
	}
	if p.TransitionDelayRate > 0 && p.TransitionDelayEpochs == 0 {
		return fmt.Errorf("faultinject: TransitionDelayRate > 0 needs TransitionDelayEpochs > 0")
	}
	if p.MeterSpikeRate > 0 && (math.IsNaN(p.MeterSpikeFactor) || p.MeterSpikeFactor < 1) {
		return fmt.Errorf("faultinject: MeterSpikeFactor = %v, must be >= 1 when MeterSpikeRate > 0", p.MeterSpikeFactor)
	}
	if p.StragglerRate > 0 && (math.IsNaN(p.StragglerFactor) || p.StragglerFactor < 1) {
		return fmt.Errorf("faultinject: StragglerFactor = %v, must be >= 1 when StragglerRate > 0", p.StragglerFactor)
	}
	return nil
}

// Zero reports whether the plan injects nothing: every rate and sigma is
// exactly zero. A nil or Zero plan must leave a run bit-identical to one
// that never saw this package.
func (p *Plan) Zero() bool {
	return p.GPUNoiseSigma == 0 && p.GPUDropRate == 0 && p.GPUStaleRate == 0 &&
		p.CPUNoiseSigma == 0 && p.CPUDropRate == 0 && p.CPUStaleRate == 0 &&
		p.TransitionRejectRate == 0 && p.TransitionDelayRate == 0 &&
		p.MeterDropRate == 0 && p.MeterSpikeRate == 0 &&
		p.StragglerRate == 0
}

// Counts tallies injected faults by class. The zero value is empty; Sub
// yields per-interval deltas for iteration-level reporting.
type Counts struct {
	GPUSensorNoisy   uint64
	GPUSensorDropped uint64
	GPUSensorStale   uint64
	CPUSensorNoisy   uint64
	CPUSensorDropped uint64
	CPUSensorStale   uint64
	TransRejected    uint64
	TransDelayed     uint64
	MeterDropouts    uint64
	MeterSpikes      uint64
	Stragglers       uint64
}

// Total returns the number of injected faults across all classes. Noisy
// samples are included: with a non-zero sigma every delivered sample is a
// (mild) fault.
func (c Counts) Total() uint64 {
	return c.GPUSensorNoisy + c.GPUSensorDropped + c.GPUSensorStale +
		c.CPUSensorNoisy + c.CPUSensorDropped + c.CPUSensorStale +
		c.TransRejected + c.TransDelayed +
		c.MeterDropouts + c.MeterSpikes +
		c.Stragglers
}

// Sub returns the per-class difference c − earlier, for windowed counts.
func (c Counts) Sub(earlier Counts) Counts {
	return Counts{
		GPUSensorNoisy:   c.GPUSensorNoisy - earlier.GPUSensorNoisy,
		GPUSensorDropped: c.GPUSensorDropped - earlier.GPUSensorDropped,
		GPUSensorStale:   c.GPUSensorStale - earlier.GPUSensorStale,
		CPUSensorNoisy:   c.CPUSensorNoisy - earlier.CPUSensorNoisy,
		CPUSensorDropped: c.CPUSensorDropped - earlier.CPUSensorDropped,
		CPUSensorStale:   c.CPUSensorStale - earlier.CPUSensorStale,
		TransRejected:    c.TransRejected - earlier.TransRejected,
		TransDelayed:     c.TransDelayed - earlier.TransDelayed,
		MeterDropouts:    c.MeterDropouts - earlier.MeterDropouts,
		MeterSpikes:      c.MeterSpikes - earlier.MeterSpikes,
		Stragglers:       c.Stragglers - earlier.Stragglers,
	}
}

// Add returns the per-class sum c + other, for fleet-level accumulation of
// per-node fault tallies.
func (c Counts) Add(other Counts) Counts {
	return Counts{
		GPUSensorNoisy:   c.GPUSensorNoisy + other.GPUSensorNoisy,
		GPUSensorDropped: c.GPUSensorDropped + other.GPUSensorDropped,
		GPUSensorStale:   c.GPUSensorStale + other.GPUSensorStale,
		CPUSensorNoisy:   c.CPUSensorNoisy + other.CPUSensorNoisy,
		CPUSensorDropped: c.CPUSensorDropped + other.CPUSensorDropped,
		CPUSensorStale:   c.CPUSensorStale + other.CPUSensorStale,
		TransRejected:    c.TransRejected + other.TransRejected,
		TransDelayed:     c.TransDelayed + other.TransDelayed,
		MeterDropouts:    c.MeterDropouts + other.MeterDropouts,
		MeterSpikes:      c.MeterSpikes + other.MeterSpikes,
		Stragglers:       c.Stragglers + other.Stragglers,
	}
}

// TransitionOutcome is the fate of one frequency-transition attempt.
type TransitionOutcome int

// Transition outcomes.
const (
	// TransitionOK applies immediately.
	TransitionOK TransitionOutcome = iota
	// TransitionRejected sticks the clock at the old level.
	TransitionRejected
	// TransitionDelayed lands the new level N epochs late.
	TransitionDelayed
)

// MeterFault is the fate of one power-meter sample.
type MeterFault int

// Meter sample fates.
const (
	// MeterOK delivers the sample unchanged.
	MeterOK MeterFault = iota
	// MeterDropped loses the sample (NaN).
	MeterDropped
	// MeterSpiked multiplies the sample by the plan's spike factor.
	MeterSpiked
)

// Channel salts. Each fault class draws from its own stateless stream so
// that enabling one class never shifts another's sequence. The constants
// are arbitrary but frozen — changing one changes every injected sequence.
const (
	saltGPUDrop   uint64 = 0xd1ce0001
	saltGPUStale  uint64 = 0xd1ce0002
	saltCPUNoise  uint64 = 0xd1ce0003
	saltCPUDrop   uint64 = 0xd1ce0004
	saltCPUStale  uint64 = 0xd1ce0005
	saltTransGPU  uint64 = 0xd1ce0006
	saltTransCPU  uint64 = 0xd1ce0007
	saltMeter     uint64 = 0xd1ce0008
	saltStraggler uint64 = 0xd1ce0009
)

// Injector applies one run's fault plan. It is deliberately not safe for
// concurrent use: an injector belongs to exactly one simulated machine,
// whose event loop is single-threaded. All methods are allocation-free.
type Injector struct {
	plan   Plan
	counts Counts

	gpuNoise  parallel.Stream
	gpuDrop   parallel.Stream
	gpuStale  parallel.Stream
	cpuNoise  parallel.Stream
	cpuDrop   parallel.Stream
	cpuStale  parallel.Stream
	transGPU  parallel.Stream
	transCPU  parallel.Stream
	meter     parallel.Stream
	straggler parallel.Stream

	// Last delivered sensor values, replayed by the stale classes.
	lastUc, lastUm float64
	haveGPU        bool
	lastCPU        float64
	haveCPU        bool
}

// New creates an injector for the plan. It panics on an invalid plan; use
// Plan.Validate to check first.
func New(p Plan) *Injector {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Injector{
		plan: p,
		// The GPU noise channel reproduces the sensor-noise ablation's
		// historical derivation exactly: sigma's bits are its only salt.
		// The CPU noise channel mixes its sigma in the same way.
		gpuNoise:  parallel.NewStream(p.Seed, math.Float64bits(p.GPUNoiseSigma)),
		gpuDrop:   parallel.NewStream(p.Seed, saltGPUDrop),
		gpuStale:  parallel.NewStream(p.Seed, saltGPUStale),
		cpuNoise:  parallel.NewStream(p.Seed, math.Float64bits(p.CPUNoiseSigma)^saltCPUNoise),
		cpuDrop:   parallel.NewStream(p.Seed, saltCPUDrop),
		cpuStale:  parallel.NewStream(p.Seed, saltCPUStale),
		transGPU:  parallel.NewStream(p.Seed, saltTransGPU),
		transCPU:  parallel.NewStream(p.Seed, saltTransCPU),
		meter:     parallel.NewStream(p.Seed, saltMeter),
		straggler: parallel.NewStream(p.Seed, saltStraggler),
	}
}

// Plan returns the injector's fault plan.
func (in *Injector) Plan() Plan { return in.plan }

// Counts returns the faults injected so far, by class.
func (in *Injector) Counts() Counts { return in.counts }

// GPUSensor transforms one (core, memory) utilization sample. A dropped
// sample returns (NaN, NaN); a stale sample repeats the previous delivered
// pair; otherwise noise (if configured) is applied and the pair delivered.
// Classes are evaluated drop, then stale, then noise — a poll that fails
// outright never reads the stale file, and noise perturbs only fresh reads.
func (in *Injector) GPUSensor(uc, um float64) (float64, float64) {
	if in.plan.GPUDropRate > 0 && in.gpuDrop.Next() < in.plan.GPUDropRate {
		in.counts.GPUSensorDropped++
		return math.NaN(), math.NaN()
	}
	if in.plan.GPUStaleRate > 0 && in.gpuStale.Next() < in.plan.GPUStaleRate && in.haveGPU {
		in.counts.GPUSensorStale++
		return in.lastUc, in.lastUm
	}
	if sigma := in.plan.GPUNoiseSigma; sigma > 0 {
		a := in.gpuNoise.Next()
		b := in.gpuNoise.Next()
		uc = units.Clamp(uc+(a*2-1)*sigma, 0, 1)
		um = units.Clamp(um+(b*2-1)*sigma, 0, 1)
		in.counts.GPUSensorNoisy++
	}
	in.lastUc, in.lastUm = uc, um
	in.haveGPU = true
	return uc, um
}

// CPUSensor transforms one CPU utilization sample, with the same
// drop → stale → noise evaluation order as GPUSensor.
func (in *Injector) CPUSensor(u float64) float64 {
	if in.plan.CPUDropRate > 0 && in.cpuDrop.Next() < in.plan.CPUDropRate {
		in.counts.CPUSensorDropped++
		return math.NaN()
	}
	if in.plan.CPUStaleRate > 0 && in.cpuStale.Next() < in.plan.CPUStaleRate && in.haveCPU {
		in.counts.CPUSensorStale++
		return in.lastCPU
	}
	if sigma := in.plan.CPUNoiseSigma; sigma > 0 {
		a := in.cpuNoise.Next()
		u = units.Clamp(u+(a*2-1)*sigma, 0, 1)
		in.counts.CPUSensorNoisy++
	}
	in.lastCPU = u
	in.haveCPU = true
	return u
}

// GPUTransition decides the fate of one GPU frequency-transition attempt.
// delay is the epoch count for TransitionDelayed, 0 otherwise.
func (in *Injector) GPUTransition() (outcome TransitionOutcome, delay int) {
	return in.transition(&in.transGPU)
}

// CPUTransition decides the fate of one CPU P-state transition attempt.
func (in *Injector) CPUTransition() (outcome TransitionOutcome, delay int) {
	return in.transition(&in.transCPU)
}

func (in *Injector) transition(ch *parallel.Stream) (TransitionOutcome, int) {
	pr := in.plan.TransitionRejectRate
	pd := in.plan.TransitionDelayRate
	if pr == 0 && pd == 0 {
		return TransitionOK, 0
	}
	u := ch.Next()
	switch {
	case u < pr:
		in.counts.TransRejected++
		return TransitionRejected, 0
	case u < pr+pd:
		in.counts.TransDelayed++
		return TransitionDelayed, in.plan.TransitionDelayEpochs
	default:
		return TransitionOK, 0
	}
}

// Meter decides the fate of one power-meter sample. The decision is drawn
// whether or not anyone reads the meter this epoch, so fault counts do not
// depend on which observers happen to be attached.
func (in *Injector) Meter() MeterFault {
	pd := in.plan.MeterDropRate
	ps := in.plan.MeterSpikeRate
	if pd == 0 && ps == 0 {
		return MeterOK
	}
	u := in.meter.Next()
	switch {
	case u < pd:
		in.counts.MeterDropouts++
		return MeterDropped
	case u < pd+ps:
		in.counts.MeterSpikes++
		return MeterSpiked
	default:
		return MeterOK
	}
}

// ApplyMeter applies a Meter verdict to a sample in watts: dropped samples
// become NaN, spiked samples are multiplied by the plan's spike factor.
func (in *Injector) ApplyMeter(f MeterFault, watts float64) float64 {
	switch f {
	case MeterDropped:
		return math.NaN()
	case MeterSpiked:
		return watts * in.plan.MeterSpikeFactor
	default:
		return watts
	}
}

// Straggler decides whether the next iteration's GPU work straggles,
// returning the inflation factor (1 when healthy).
func (in *Injector) Straggler() float64 {
	if in.plan.StragglerRate == 0 {
		return 1
	}
	if in.straggler.Next() < in.plan.StragglerRate {
		in.counts.Stragglers++
		return in.plan.StragglerFactor
	}
	return 1
}
