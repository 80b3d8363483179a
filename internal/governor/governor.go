// Package governor implements CPU frequency governors: the Linux ondemand
// governor that GreenGPU adopts for the CPU tier (paper §IV), plus the fixed
// policies used as baselines in the evaluation.
//
// The ondemand behaviour follows Pallipadi & Starikovskiy's description,
// which the paper quotes: "If CPU utilization rises above an upper
// utilization threshold value, the ondemand governor increases the CPU
// frequency to the highest available frequency. When CPU utilization falls
// below a low utilization threshold, the governor sets the CPU to run at the
// next lowest frequency."
package governor

import (
	"fmt"

	"greengpu/internal/telemetry"
)

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

// decider is implemented by every policy in this package: Next's logic,
// counting into t. Each policy's Next is decide plus an immediate flush.
type decider interface {
	decide(util float64, current, nLevels int, t *Tally) int
}

// Bind returns p's decision function with this package's metrics counted
// into t rather than added at once: call it once per run, then once per
// decision. Policies defined outside this package decide through Next.
func (t *Tally) Bind(p Policy) func(util float64, current, nLevels int) int {
	if d, ok := p.(decider); ok {
		return func(util float64, current, nLevels int) int {
			return d.decide(util, current, nLevels, t)
		}
	}
	return p.Next
}

// Credit counts n more decisions exactly like the one t counted since it
// equalled before: what n more calls of the function from Bind would count
// if each decided the same. It is for ticks skipped because they would
// repeat the decision just made, which holds only for a Stateless policy.
func (t *Tally) Credit(before Tally, n uint64) {
	t.decisions += n * (t.decisions - before.decisions)
	t.jumpsToMax += n * (t.jumpsToMax - before.jumpsToMax)
	t.holds += n * (t.holds - before.holds)
}

// Stateless reports whether p is one of this package's four memoryless
// policies (Ondemand, Conservative, BestPerformance, PowerSave), whose
// decision is a function of Next's arguments alone: asked again with the
// same utilization and level, it decides the same. Hardened keeps a
// last-good reading, and policies defined elsewhere may keep anything, so
// they report false.
func Stateless(p Policy) bool {
	switch p.(type) {
	case *Ondemand, *Conservative, BestPerformance, *BestPerformance, PowerSave, *PowerSave:
		return true
	}
	return false
}

// next is the body shared by every policy's Next.
func next(d decider, util float64, current, nLevels int) int {
	var t Tally
	l := d.decide(util, current, nLevels, &t)
	t.Flush()
	return l
}

// Policy decides the next frequency level from the observed utilization.
// Levels are indices into an ascending frequency ladder with nLevels
// entries; current is the level in force during the sampled interval.
type Policy interface {
	// Next returns the level to enforce for the coming interval.
	Next(util float64, current, nLevels int) int
	// Name identifies the policy in traces and experiment output.
	Name() string
}

// Ondemand is the Linux ondemand governor (linux-2.6.9 and later).
type Ondemand struct {
	// UpThreshold jumps straight to the highest level when exceeded.
	// Linux's default is 0.80.
	UpThreshold float64
	// DownThreshold steps one level down when utilization falls below it.
	// Linux derives it as UpThreshold minus a down-differential of 10
	// points by default; 0.30 matches the kernel's conservative effective
	// behaviour for mostly-idle loads and is what we default to.
	DownThreshold float64
}

// NewOndemand returns an ondemand governor with the default thresholds.
func NewOndemand() *Ondemand {
	return &Ondemand{UpThreshold: 0.80, DownThreshold: 0.30}
}

// Validate reports the first problem with the thresholds, if any.
func (o *Ondemand) Validate() error {
	if o.UpThreshold <= 0 || o.UpThreshold > 1 {
		return fmt.Errorf("governor: UpThreshold = %v, must be in (0,1]", o.UpThreshold)
	}
	if o.DownThreshold < 0 || o.DownThreshold >= o.UpThreshold {
		return fmt.Errorf("governor: DownThreshold = %v, must be in [0, UpThreshold)", o.DownThreshold)
	}
	return nil
}

// Name implements Policy.
func (o *Ondemand) Name() string { return "ondemand" }

// Next implements Policy: above UpThreshold jump to the top level; below
// DownThreshold step down one level; otherwise hold.
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
	case util > o.UpThreshold:
		t.jumpsToMax++
		return nLevels - 1
	case util < o.DownThreshold && current > 0:
		return current - 1
	default:
		return current
	}
}

// Conservative is the Linux conservative governor: like ondemand but it
// steps the frequency up gradually (one level per decision) instead of
// jumping straight to the maximum. The paper notes that other DVFS
// strategies can be slotted into GreenGPU's CPU tier; this is the other
// stock-kernel option.
type Conservative struct {
	UpThreshold   float64
	DownThreshold float64
}

// NewConservative returns a conservative governor with the kernel's
// default thresholds.
func NewConservative() *Conservative {
	return &Conservative{UpThreshold: 0.80, DownThreshold: 0.20}
}

// Validate reports the first problem with the thresholds, if any.
func (c *Conservative) Validate() error {
	if c.UpThreshold <= 0 || c.UpThreshold > 1 {
		return fmt.Errorf("governor: UpThreshold = %v, must be in (0,1]", c.UpThreshold)
	}
	if c.DownThreshold < 0 || c.DownThreshold >= c.UpThreshold {
		return fmt.Errorf("governor: DownThreshold = %v, must be in [0, UpThreshold)", c.DownThreshold)
	}
	return nil
}

// Name implements Policy.
func (c *Conservative) Name() string { return "conservative" }

// Next implements Policy: one step up above UpThreshold, one step down
// below DownThreshold, hold in between.
func (c *Conservative) Next(util float64, current, nLevels int) int {
	return next(c, util, current, nLevels)
}

func (c *Conservative) decide(util float64, current, nLevels int, t *Tally) int {
	if nLevels <= 0 {
		panic("governor: nLevels must be positive")
	}
	t.decisions++
	current = clampLevel(current, nLevels)
	switch {
	case util > c.UpThreshold && current < nLevels-1:
		return current + 1
	case util < c.DownThreshold && current > 0:
		return current - 1
	default:
		return current
	}
}

// BestPerformance always selects the highest level — the paper's
// best-performance baseline (§VII-A).
type BestPerformance struct{}

// Name implements Policy.
func (BestPerformance) Name() string { return "best-performance" }

// Next implements Policy.
func (b BestPerformance) Next(util float64, current, nLevels int) int {
	return next(b, util, current, nLevels)
}

func (BestPerformance) decide(_ float64, _, nLevels int, t *Tally) int {
	if nLevels <= 0 {
		panic("governor: nLevels must be positive")
	}
	t.decisions++
	return nLevels - 1
}

// PowerSave always selects the lowest level.
type PowerSave struct{}

// Name implements Policy.
func (PowerSave) Name() string { return "powersave" }

// Next implements Policy.
func (p PowerSave) Next(util float64, current, nLevels int) int {
	return next(p, util, current, nLevels)
}

func (PowerSave) decide(_ float64, _, nLevels int, t *Tally) int {
	if nLevels <= 0 {
		panic("governor: nLevels must be positive")
	}
	t.decisions++
	return 0
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
