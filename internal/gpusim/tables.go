package gpusim

import (
	"time"

	"greengpu/internal/units"
)

// Tables holds the per-frequency-level derived constants of a GPU
// configuration, decoupled from any live device: the same
// structure-of-arrays the GPU hot paths index, built once and shared
// read-only across a whole batch of simulation points (see core.ClosedForm,
// which internal/sweep builds per batch).
//
// Entries are computed by exactly the same code the device uses (with all
// stream multiprocessors active), so timing and power derived from a Tables
// are bit-identical to what a freshly assembled device reports at the same
// levels and utilizations.
type Tables struct {
	// CoreDenom[i] is ops/s at core level i: SMs·SPsPerSM·IPC·f.
	CoreDenom []float64
	// MemDenom[j] is bytes/s at memory level j: BytesPerMemCycle·f.
	MemDenom []float64
	// CoreFRatio[i] is f_core(i)/f_core(peak).
	CoreFRatio []float64
	// MemFRatio[j] is f_mem(j)/f_mem(peak).
	MemFRatio []float64
	// CoreScale is the SM power-gating factor at full SM count (1 unless
	// the device gates, in which case it is still 1 at activeSMs == SMs).
	CoreScale float64

	gamma float64
	power PowerParams
}

// BuildTables validates cfg and derives its level tables with every stream
// multiprocessor active — the state a fresh device is in.
func BuildTables(cfg Config) (*Tables, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nc, nm := len(cfg.CoreLevels), len(cfg.MemLevels)
	t := &Tables{
		CoreDenom:  make([]float64, nc),
		MemDenom:   make([]float64, nm),
		CoreFRatio: make([]float64, nc),
		MemFRatio:  make([]float64, nm),
		gamma:      cfg.OverlapGamma,
		power:      cfg.Power,
	}
	fillCoreFRatio(&cfg, t.CoreFRatio)
	fillMemTables(&cfg, t.MemDenom, t.MemFRatio)
	t.CoreScale = fillCoreTables(&cfg, cfg.SMs, t.CoreDenom)
	return t, nil
}

// fillCoreFRatio derives the core-frequency ratios. Shared by the live
// device and BuildTables so both produce bit-identical entries.
func fillCoreFRatio(cfg *Config, coreFRatio []float64) {
	corePeak := float64(cfg.CoreLevels[len(cfg.CoreLevels)-1])
	for i, f := range cfg.CoreLevels {
		coreFRatio[i] = float64(f) / corePeak
	}
}

// fillMemTables derives the memory-domain tables. Shared by the live device
// and BuildTables so both produce bit-identical entries.
func fillMemTables(cfg *Config, memDenom, memFRatio []float64) {
	memPeak := float64(cfg.MemLevels[len(cfg.MemLevels)-1])
	for i, f := range cfg.MemLevels {
		memDenom[i] = cfg.BytesPerMemCycle * float64(f)
		memFRatio[i] = float64(f) / memPeak
	}
}

// fillCoreTables derives the active-SM-dependent core tables and returns
// the gating power scale. Shared by the live device (which rebuilds on
// SetActiveSMs) and BuildTables so both produce bit-identical entries.
func fillCoreTables(cfg *Config, activeSMs int, coreDenom []float64) float64 {
	sps := float64(activeSMs * cfg.SPsPerSM)
	for i, f := range cfg.CoreLevels {
		coreDenom[i] = sps * cfg.IPC * float64(f)
	}
	actFrac := float64(activeSMs) / float64(cfg.SMs)
	p := cfg.Power
	return (1 - p.CoreGatable) + p.CoreGatable*actFrac
}

// demandTimesAt converts raw demands into per-domain busy times given the
// level denominators. Zero demand is zero time regardless of the
// denominator.
func demandTimesAt(ops, bytes, coreDenom, memDenom float64) (tc, tm time.Duration) {
	if ops > 0 {
		tc = units.Seconds(ops / coreDenom)
	}
	if bytes > 0 {
		tm = units.Seconds(bytes / memDenom)
	}
	return tc, tm
}

// UnifyPhaseTime combines per-domain busy times into the phase's execution
// time under the roofline-with-overlap model: max(Tc, Tm, Ts) + γ·min(Tc,
// Tm), where the stall floor Ts is given in seconds. It is exported so
// the baseline closed form (core.ClosedForm) can time phases from Tables
// without a live device.
func UnifyPhaseTime(tc, tm time.Duration, stall, gamma float64) time.Duration {
	lo, hi := tc, tm
	if lo > hi {
		lo, hi = hi, lo
	}
	if ts := units.Seconds(stall); ts > hi {
		hi = ts
	}
	return hi + time.Duration(gamma*float64(lo))
}

// powerAt composes card power from the tabulated ratios. Shared by the live
// device and Tables.Power so both produce bit-identical values.
func powerAt(p *PowerParams, fcR, fmR, coreScale float64, uc, um float64) units.Power {
	return p.Board +
		units.Power(fcR*coreScale)*(p.CoreClockTree+units.Power(uc)*p.CoreDynamic) +
		units.Power(fmR)*(p.MemClockTree+units.Power(um)*p.MemDynamic)
}

// CoreTime returns the core-domain busy time of ops operations at core
// level core. It is one separable half of a phase's timing, for the
// closed form, which tabulates the two domains independently.
func (t *Tables) CoreTime(ops float64, core int) time.Duration {
	tc, _ := demandTimesAt(ops, 0, t.CoreDenom[core], t.MemDenom[0])
	return tc
}

// MemTime returns the memory-domain busy time of bytes at memory level mem,
// the other separable half.
func (t *Tables) MemTime(bytes float64, mem int) time.Duration {
	_, tm := demandTimesAt(0, bytes, t.CoreDenom[0], t.MemDenom[mem])
	return tm
}

// Gamma returns the configuration's overlap γ.
func (t *Tables) Gamma() float64 { return t.gamma }

// Power returns card power at levels (core, mem) under utilizations
// (uc, um), exactly as a live device at those levels would report.
func (t *Tables) Power(core, mem int, uc, um float64) units.Power {
	return powerAt(&t.power, t.CoreFRatio[core], t.MemFRatio[mem], t.CoreScale, uc, um)
}
