package governor

import (
	"greengpu/internal/telemetry"
	"greengpu/internal/units"
)

var metricHardenedHolds = telemetry.NewCounter("greengpu_governor_held_samples_total",
	"CPU utilization samples replaced by the last good reading (hold-last-good).")

// Hardened wraps a Policy with sensor-fault tolerance: non-finite
// utilization readings (a dropped /proc/stat sample) are replaced by the
// last good reading instead of reaching the wrapped policy, finite
// readings are clamped to [0,1], and the returned level is clamped into
// range regardless of what the policy does. The wrapped policy therefore
// only ever sees sane inputs, and callers only ever see sane outputs.
type Hardened struct {
	policy   Policy
	lastGood float64
	holds    uint64
}

// Harden wraps a policy. The last-good reading starts at 0 (idle), the
// same fallback dvfs.sanitizeUtil uses before any sample has arrived.
func Harden(p Policy) *Hardened {
	return &Hardened{policy: p}
}

// Name implements Policy.
func (h *Hardened) Name() string { return "hardened(" + h.policy.Name() + ")" }

// Holds returns how many samples hold-last-good replaced.
func (h *Hardened) Holds() uint64 { return h.holds }

// Next implements Policy.
func (h *Hardened) Next(util float64, current, nLevels int) int {
	return next(h, util, current, nLevels)
}

func (h *Hardened) decide(util float64, current, nLevels int, t *Tally) int {
	if util != util || util-util != 0 { // NaN or ±Inf
		util = h.lastGood
		h.holds++
		t.holds++
	} else {
		util = units.Clamp(util, 0, 1)
		h.lastGood = util
	}
	return clampLevel(h.policy.decide(util, current, nLevels, t), nLevels)
}
