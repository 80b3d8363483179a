// Package governor implements the CPU tier's frequency governor: the Linux
// ondemand governor that GreenGPU adopts unchanged (paper §IV), and a
// Hardened wrapper that tolerates faulty utilization samples.
//
// The ondemand behaviour follows Pallipadi & Starikovskiy's description,
// which the paper quotes: "If CPU utilization rises above an upper
// utilization threshold value, the ondemand governor increases the CPU
// frequency to the highest available frequency. When CPU utilization falls
// below a low utilization threshold, the governor sets the CPU to run at the
// next lowest frequency."
package governor

import "greengpu/internal/telemetry"

// Package metrics (see docs/OBSERVABILITY.md). No-ops unless telemetry is
// enabled. Next adds each decision at once; a decision function from
// Tally.Bind counts into the tally, which its owner flushes with one Add
// per metric (core.Run does so when a run ends).
var (
	metricDecisions = telemetry.NewCounter("greengpu_governor_decisions_total",
		"CPU governor sampling decisions (Policy.Next calls) across all runs.")
	metricJumpsToMax = telemetry.NewCounter("greengpu_governor_jumps_to_max_total",
		"Ondemand decisions that jumped straight to the highest P-state.")
)

// Tally counts governor decisions, jumps to the top level and held samples
// locally, so a run's worth of them reaches the package metrics in one Add
// each instead of one contended atomic per decision.
type Tally struct {
	decisions, jumpsToMax, holds uint64
}

// Flush adds the tally to the package metrics and zeroes it.
func (t *Tally) Flush() {
	if t.decisions > 0 {
		metricDecisions.Add(t.decisions)
	}
	if t.jumpsToMax > 0 {
		metricJumpsToMax.Add(t.jumpsToMax)
	}
	if t.holds > 0 {
		metricHardenedHolds.Add(t.holds)
	}
	*t = Tally{}
}

// Bind returns p's decision function with this package's metrics counted
// into t rather than added at once: call it once per run, then once per
// decision.
func (t *Tally) Bind(p Policy) func(util float64, current, nLevels int) int {
	return func(util float64, current, nLevels int) int {
		return p.decide(util, current, nLevels, t)
	}
}

// Credit counts n more decisions exactly like the one t counted since it
// equalled before: what n more calls of the function from Bind would count
// if each decided the same. It is for ondemand ticks skipped because they
// would repeat the decision just made.
func (t *Tally) Credit(before Tally, n uint64) {
	t.decisions += n * (t.decisions - before.decisions)
	t.jumpsToMax += n * (t.jumpsToMax - before.jumpsToMax)
	t.holds += n * (t.holds - before.holds)
}

// next is the body shared by every policy's Next.
func next(p Policy, util float64, current, nLevels int) int {
	var t Tally
	l := p.decide(util, current, nLevels, &t)
	t.Flush()
	return l
}

// Policy decides the next frequency level from the observed utilization.
// Levels are indices into an ascending frequency ladder with nLevels
// entries; current is the level in force during the sampled interval.
// Only this package's policies implement it.
type Policy interface {
	// Next returns the level to enforce for the coming interval.
	Next(util float64, current, nLevels int) int
	// Name identifies the policy in traces and experiment output.
	Name() string
	// decide is Next's logic, counting into t instead of the package
	// metrics.
	decide(util float64, current, nLevels int, t *Tally) int
}

// Ondemand is the Linux ondemand governor (linux-2.6.9 and later).
type Ondemand struct{}

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

// NewOndemand returns an ondemand governor.
func NewOndemand() *Ondemand { return &Ondemand{} }

// Name implements Policy.
func (o *Ondemand) Name() string { return "ondemand" }

// Next implements Policy: above upThreshold jump to the top level; below
// downThreshold step down one level; otherwise hold.
func (o *Ondemand) Next(util float64, current, nLevels int) int {
	return next(o, util, current, nLevels)
}

func (o *Ondemand) decide(util float64, current, nLevels int, t *Tally) int {
	if nLevels <= 0 {
		panic("governor: nLevels must be positive")
	}
	t.decisions++
	current = clampLevel(current, nLevels)
	switch {
	case util > upThreshold:
		t.jumpsToMax++
		return nLevels - 1
	case util < downThreshold && current > 0:
		return current - 1
	default:
		return current
	}
}

func clampLevel(l, n int) int {
	if l < 0 {
		return 0
	}
	if l >= n {
		return n - 1
	}
	return l
}
