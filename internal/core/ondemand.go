package core

import (
	"greengpu/internal/telemetry"
	"greengpu/internal/units"
)

// The CPU governor's metrics (see docs/OBSERVABILITY.md). A run tallies its
// decisions, jumps and holds in its govTally and adds them here once each
// when it ends.
var (
	metricGovDecisions = telemetry.NewCounter("greengpu_governor_decisions_total",
		"CPU governor sampling decisions across all runs, skipped repeats included.")
	metricGovJumpsToMax = telemetry.NewCounter("greengpu_governor_jumps_to_max_total",
		"Ondemand decisions that jumped straight to the highest P-state.")
	metricGovHeldSamples = telemetry.NewCounter("greengpu_governor_held_samples_total",
		"CPU utilization samples replaced by the last good reading (hold-last-good).")
)

const (
	// upThreshold jumps straight to the highest level when exceeded.
	// Linux's default is 0.80.
	upThreshold = 0.80
	// downThreshold steps one level down when utilization falls below it.
	// Linux derives it as upThreshold minus a down-differential of 10
	// points by default; 0.30 matches the kernel's conservative effective
	// behaviour for mostly-idle loads and is what we default to.
	downThreshold = 0.30
)

// ondemand is the Linux ondemand governor (linux-2.6.9 and later), which
// GreenGPU adopts unchanged (paper §IV). In Pallipadi & Starikovskiy's
// words, which the paper quotes: "If CPU utilization rises above an upper
// utilization threshold value, the ondemand governor increases the CPU
// frequency to the highest available frequency. When CPU utilization falls
// below a low utilization threshold, the governor sets the CPU to run at
// the next lowest frequency."
//
// current is the level in force during the sampled interval, an index into
// an ascending ladder of nLevels P-states. next is the level for the coming
// interval; jump reports a jump to the top, also from the top itself.
func ondemand(util float64, current, nLevels int) (next int, jump bool) {
	switch {
	case util > upThreshold:
		return nLevels - 1, true
	case util < downThreshold && current > 0:
		return current - 1, false
	default:
		return current, false
	}
}

// govTally counts one run's governor decisions, jumps to the top level and
// held samples, so that each reaches its metric in one Add when the run
// ends rather than in one contended atomic per tick.
type govTally struct {
	decisions, jumps, holds uint64
}

// count tallies n decisions that each jumped to the top level or not: one
// per tick, plus the ticks skipped because they would repeat it.
func (t *govTally) count(n uint64, jump bool) {
	t.decisions += n
	if jump {
		t.jumps += n
	}
}

// flush adds the tally to the governor metrics. Run calls it once, at the
// end; a run without tier 2 made no decision and touches no counter.
func (t *govTally) flush() {
	if t.decisions > 0 {
		metricGovDecisions.Add(t.decisions)
		metricGovJumpsToMax.Add(t.jumps)
		metricGovHeldSamples.Add(t.holds)
	}
}

// holdCPUSample is hold-last-good on the governor's utilization sample, armed
// with a fault plan: a non-finite reading (a dropped /proc/stat sample) is
// replaced by the last good one and counted as a hold, and a finite one is
// clamped to [0,1] and becomes the last good one. Before the first good
// reading the fallback is 0 (idle), as in dvfs.Guard.Sample.
func (f *framework) holdCPUSample(u float64) float64 {
	if u != u || u-u != 0 { // NaN or ±Inf
		f.gov.holds++
		return f.cpuLastGood
	}
	f.cpuLastGood = units.Clamp(u, 0, 1)
	return f.cpuLastGood
}
