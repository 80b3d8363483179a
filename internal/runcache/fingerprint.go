// Package runcache is a content-addressed, concurrency-safe memoization
// layer for simulation points.
//
// Every GreenGPU figure and table is a deterministic function of the device
// configurations, the calibrated workload profile, and the framework
// configuration: running the same point twice produces bit-identical
// results. The experiment suite exploits neither fact on its own — the
// per-workload best-performance baseline alone is recomputed independently
// by Fig. 6, Fig. 8, two ablations, and three extension studies. This
// package closes that gap:
//
//   - A Key is a SHA-256 fingerprint over a canonical binary encoding of
//     (gpusim.Config, cpusim.Config, bus.Config, workload.Profile,
//     core.Config). Equal inputs fingerprint equally on every platform and
//     process; any semantic difference reaches the hash through an
//     explicitly encoded field.
//   - Cache.Do deduplicates concurrent requests for the same key
//     (single-flight): when several parallel.Map workers need the same
//     point, exactly one runs the simulation and the rest block on it.
//   - An optional on-disk layer (gob files under a version-stamped
//     directory) makes cmd/experiments re-runs incremental across
//     processes.
//
// # Canonical-encoding rules
//
// The fingerprint must be stable (same inputs → same key, forever, on every
// platform) and collision-free across semantically different inputs. The
// encoding therefore follows fixed rules:
//
//   - Every field is written in a fixed order with a leading tag byte, so
//     adjacent fields can never alias (a "" string followed by "ab" is
//     distinct from "a" followed by "b").
//   - Strings are length-prefixed. Slices are length-prefixed. Integers are
//     written as big-endian two's-complement 64-bit values. Floats are
//     written as their IEEE-754 bit patterns (math.Float64bits), so -0.0
//     and 0.0, or two NaN payloads, fingerprint differently — bitwise
//     identity is exactly the simulator's reproducibility contract.
//   - Optional pointer fields (InitialLevels, StaticRatio) encode a
//     presence byte followed by the pointed-to value.
//   - The encoding begins with schemaTag, which includes SchemaVersion.
//     Bump SchemaVersion whenever the simulation model, the calibration,
//     or this encoding changes meaning: old fingerprints (and the disk
//     entries filed under them) become unreachable rather than stale.
//
// Configurations carrying functions or interfaces (observers, filters,
// custom division policies) have behaviour the fingerprint cannot see;
// Cacheable reports false for them and callers must bypass the cache.
package runcache

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"time"

	"greengpu/internal/bus"
	"greengpu/internal/core"
	"greengpu/internal/cpusim"
	"greengpu/internal/gpusim"
	"greengpu/internal/units"
	"greengpu/internal/workload"
)

// SchemaVersion stamps both the fingerprint and the on-disk layout. Bump it
// whenever simulation results for the same configuration can change: timing
// or power model edits, calibration changes, encoding changes, or new
// fields on any encoded struct. Old disk entries are then simply never
// looked up again (they live under the previous version's directory).
const SchemaVersion = 3

// Key identifies one simulation point: a SHA-256 digest of the canonical
// encoding. It is comparable and usable as a map key.
type Key [sha256.Size]byte

// Cacheable reports whether a framework configuration is fully captured by
// the fingerprint. Configurations with observer callbacks, fault-injection
// filters, or custom policy implementations carry behaviour in code the
// encoding cannot name, so their runs must bypass the cache.
func Cacheable(cfg *core.Config) bool {
	return cfg.DivisionPolicy == nil &&
		cfg.ActuatorFilter == nil &&
		cfg.OnDVFS == nil &&
		cfg.OnCPUGovernor == nil &&
		cfg.OnIteration == nil
}

// KeyOf fingerprints one simulation point. The variant string distinguishes
// run flavours that share a configuration but observe the machine
// differently (e.g. a run with the GPU power meter attached); the empty
// string is the plain core.Run flavour. KeyOf panics if the configuration
// is not Cacheable — fingerprinting it would silently conflate different
// behaviours under one key.
func KeyOf(gpu *gpusim.Config, cpu *cpusim.Config, b *bus.Config, p *workload.Profile, cfg *core.Config, variant string) Key {
	if !Cacheable(cfg) {
		panic("runcache: KeyOf on a non-cacheable configuration")
	}
	e := encoder{h: sha256.New()}
	e.str(tagSchema, schemaTag)
	e.str(tagVariant, variant)
	e.gpuConfig(gpu)
	e.cpuConfig(cpu)
	e.busConfig(b)
	e.profile(p)
	e.coreConfig(cfg)
	var k Key
	e.h.Sum(k[:0])
	return k
}

// schemaTag opens every encoding. It names the format and its version so a
// digest can never be confused with one produced by a different scheme.
const schemaTag = "greengpu/runcache/v2"

// Field tags. Every encoded field leads with one; values are never adjacent
// without a tag between them. The concrete numbers are arbitrary but
// frozen: changing them is an encoding change (bump SchemaVersion).
const (
	tagSchema byte = iota + 1
	tagVariant
	tagGPUConfig
	tagCPUConfig
	tagBusConfig
	tagProfile
	tagCoreConfig
	tagStr
	tagInt
	tagFloat
	tagBool
	tagLen
	tagAbsent
	tagPresent
)

// encoder streams tagged canonical values into the digest.
type encoder struct {
	h   hash.Hash
	buf [9]byte // tag byte + 64-bit payload
}

func (e *encoder) raw(tag byte, v uint64) {
	e.buf[0] = tag
	binary.BigEndian.PutUint64(e.buf[1:], v)
	e.h.Write(e.buf[:])
}

func (e *encoder) tag(t byte)          { e.buf[0] = t; e.h.Write(e.buf[:1]) }
func (e *encoder) int(v int64)         { e.raw(tagInt, uint64(v)) }
func (e *encoder) float(v float64)     { e.raw(tagFloat, floatBits(v)) }
func (e *encoder) dur(v time.Duration) { e.raw(tagInt, uint64(v)) }

func (e *encoder) bool(v bool) {
	b := uint64(0)
	if v {
		b = 1
	}
	e.raw(tagBool, b)
}

func (e *encoder) str(tag byte, s string) {
	e.raw(tag, uint64(len(s)))
	e.h.Write([]byte(s))
}

func (e *encoder) length(n int) { e.raw(tagLen, uint64(n)) }

func (e *encoder) freqs(vs []units.Frequency) {
	e.length(len(vs))
	for _, v := range vs {
		e.float(float64(v))
	}
}

func floatBits(v float64) uint64 { return math.Float64bits(v) }

func (e *encoder) gpuConfig(c *gpusim.Config) {
	e.tag(tagGPUConfig)
	e.str(tagStr, c.Name)
	e.int(int64(c.SMs))
	e.int(int64(c.SPsPerSM))
	e.float(c.IPC)
	e.freqs(c.CoreLevels)
	e.freqs(c.MemLevels)
	e.float(c.BytesPerMemCycle)
	e.float(c.OverlapGamma)
	e.float(float64(c.Power.Board))
	e.float(float64(c.Power.CoreClockTree))
	e.float(float64(c.Power.CoreDynamic))
	e.float(float64(c.Power.MemClockTree))
	e.float(float64(c.Power.MemDynamic))
	e.float(c.Power.CoreGatable)
}

func (e *encoder) cpuConfig(c *cpusim.Config) {
	e.tag(tagCPUConfig)
	e.str(tagStr, c.Name)
	e.int(int64(c.Cores))
	e.float(c.IPC)
	e.length(len(c.PStates))
	for _, ps := range c.PStates {
		e.float(float64(ps.Frequency))
		e.float(float64(ps.Voltage))
	}
	e.float(float64(c.Power.Platform))
	e.float(float64(c.Power.StaticPerCore))
	e.float(float64(c.Power.DynPerCore))
}

func (e *encoder) busConfig(c *bus.Config) {
	e.tag(tagBusConfig)
	e.str(tagStr, c.Name)
	e.float(float64(c.Bandwidth))
	e.dur(c.Latency)
}

func (e *encoder) profile(p *workload.Profile) {
	e.tag(tagProfile)
	e.str(tagStr, p.Name)
	e.int(int64(p.Iterations))
	e.length(len(p.Phases))
	for _, ph := range p.Phases {
		e.str(tagStr, ph.Label)
		e.float(ph.Fraction)
		e.float(ph.OpsPerUnit)
		e.float(ph.BytesPerUnit)
		e.float(ph.StallPerUnit)
	}
	e.float(p.CPUOpsPerUnit)
	e.float(p.TransferBytesPerUnit)
	e.float(p.RepartitionBytes)
}

func (e *encoder) coreConfig(c *core.Config) {
	e.tag(tagCoreConfig)
	e.int(int64(c.Mode))
	e.dur(c.DVFSInterval)
	e.float(c.GPUScaler.AlphaCore)
	e.float(c.GPUScaler.AlphaMem)
	e.float(c.GPUScaler.Phi)
	e.float(c.GPUScaler.Beta)
	e.bool(c.Fixed8Scaler)
	e.bool(c.SMScaling)
	// The CPU governor period and, further down, the three guard settings
	// are fixed, not Config fields, but keep their slots in the encoding:
	// every key then stays the one earlier builds filed disk entries under.
	e.dur(core.GovernorInterval)
	e.float(c.Division.Step)
	e.float(c.Division.Initial)
	e.float(c.Division.Min)
	e.float(c.Division.Max)
	e.bool(c.Division.Safeguard)
	e.int(int64(c.Iterations))
	e.bool(c.SpinWait)
	if c.InitialLevels == nil {
		e.tag(tagAbsent)
	} else {
		e.tag(tagPresent)
		e.int(int64(c.InitialLevels.Core))
		e.int(int64(c.InitialLevels.Mem))
		e.int(int64(c.InitialLevels.CPU))
	}
	if c.StaticRatio == nil {
		e.tag(tagAbsent)
	} else {
		e.tag(tagPresent)
		e.float(*c.StaticRatio)
	}
	// Three slots for the hardened guards' settings, which are constants
	// of dvfs.Guard; always zero, they keep every key stable.
	e.int(0)
	e.int(0)
	e.int(0)
	// The fault plan is pure data, so faulty runs stay cacheable — every
	// field reaches the hash. A nil plan and the Zero plan behave
	// identically (no injection) but fingerprint differently; callers who
	// want the shared fault-free key pass nil.
	if c.FaultPlan == nil {
		e.tag(tagAbsent)
	} else {
		e.tag(tagPresent)
		p := c.FaultPlan
		e.raw(tagInt, p.Seed)
		e.float(p.GPUNoiseSigma)
		e.float(p.GPUDropRate)
		e.float(p.GPUStaleRate)
		e.float(p.CPUNoiseSigma)
		e.float(p.CPUDropRate)
		e.float(p.CPUStaleRate)
		e.float(p.TransitionRejectRate)
		e.float(p.TransitionDelayRate)
		e.int(int64(p.TransitionDelayEpochs))
		e.float(p.MeterDropRate)
		e.float(p.MeterSpikeRate)
		e.float(p.MeterSpikeFactor)
		e.float(p.StragglerRate)
		e.float(p.StragglerFactor)
	}
}
