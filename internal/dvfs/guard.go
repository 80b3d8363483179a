package dvfs

import "greengpu/internal/telemetry"

// Guard metrics (see docs/OBSERVABILITY.md). No-ops unless telemetry is
// enabled. Sample and Step only bump the guard's own Counts; FlushMetrics
// adds them here in one Add each, which core.Run does when a run ends.
var (
	metricGuardHeldSamples = telemetry.NewCounter("greengpu_guard_held_samples_total",
		"Dropped sensor samples replaced by the last good reading (hold-last-good).")
	metricGuardRetries = telemetry.NewCounter("greengpu_guard_retries_total",
		"Frequency-transition attempts re-issued after a failure.")
	metricGuardDeferred = telemetry.NewCounter("greengpu_guard_deferred_applies_total",
		"Delayed frequency transitions that eventually landed.")
	metricGuardWatchdog = telemetry.NewCounter("greengpu_guard_watchdog_trips_total",
		"Watchdog activations: K consecutive transition failures forced the failsafe levels.")
)

// TransitionResult is a gate's report for one attempted frequency
// transition (see Guard.Step). It mirrors the failure modes a real driver
// write exhibits: it takes effect now, it silently does nothing, or it
// lands late.
type TransitionResult int

// Gate outcomes.
const (
	// TransitionApplied takes effect immediately.
	TransitionApplied TransitionResult = iota
	// TransitionFailed leaves the clock at the old level; the guard will
	// retry with backoff.
	TransitionFailed
	// TransitionDeferred accepts the write but applies it N epochs later.
	TransitionDeferred
)

const (
	// watchdogK is the number of consecutive failed transition attempts
	// that trips the watchdog.
	watchdogK = 3
	// failsafeHold is how many epochs the guard pins the failsafe decision
	// after a watchdog trip before resuming normal control.
	failsafeHold = 8
)

// GuardCounts tallies the guard's recovery actions.
type GuardCounts struct {
	// HeldSamples is sensor samples replaced by the last good reading.
	HeldSamples uint64
	// Retries is transition attempts re-issued after a failure.
	Retries uint64
	// DeferredApplies is delayed transitions that eventually landed.
	DeferredApplies uint64
	// WatchdogTrips is watchdog activations (K consecutive failures).
	WatchdogTrips uint64
}

// Total returns the number of recovery actions across all kinds.
func (c GuardCounts) Total() uint64 {
	return c.HeldSamples + c.Retries + c.DeferredApplies + c.WatchdogTrips
}

// Sub returns the per-kind difference c − earlier, for windowed counts.
func (c GuardCounts) Sub(earlier GuardCounts) GuardCounts {
	return GuardCounts{
		HeldSamples:     c.HeldSamples - earlier.HeldSamples,
		Retries:         c.Retries - earlier.Retries,
		DeferredApplies: c.DeferredApplies - earlier.DeferredApplies,
		WatchdogTrips:   c.WatchdogTrips - earlier.WatchdogTrips,
	}
}

// Guard hardens a frequency-control loop against sensor and actuator
// faults. It sits between a controller (Scaler, or a CPU governor using
// only the CoreLevel field) and the hardware it actuates, providing:
//
//   - hold-last-good: Sample substitutes the previous good utilization
//     reading for dropped (non-finite) samples, so one failed poll does not
//     yank the controller toward idle;
//   - bounded retry with backoff: a failed transition is retried after 1
//     epoch, then after 2, holding the old level in between, so a flapping
//     driver is not hammered every epoch;
//   - watchdog failsafe: the third consecutive failure pins the failsafe
//     (performance-safe) decision for 8 epochs, then normal control
//     resumes. Falling back to the highest frequencies trades energy for
//     safety, as the paper's real testbed does implicitly: the card's
//     reset state is its shipped (peak) clocks.
//
// The guard is not safe for concurrent use; like the controllers it wraps
// it belongs to one simulated machine's event loop. All methods are
// allocation-free.
type Guard struct {
	failsafe Decision
	counts   GuardCounts
	flushed  GuardCounts // counts already added to the package metrics

	last Decision // level pair the guard believes is in force

	pending   Decision // deferred transition in flight
	pendingIn int      // epochs until pending lands; 0 = none

	fails        int // consecutive failed attempts
	backoff      int // next backoff length in epochs
	wait         int // epochs left before another attempt is allowed
	failsafeLeft int // epochs of failsafe pinning remaining

	lastUc, lastUm float64 // most recent good sample, for Sample
}

// NewGuard creates a guard that enforces failsafe when its watchdog trips
// and assumes initial is currently in force — typically the run's initial
// frequency levels.
func NewGuard(failsafe, initial Decision) *Guard {
	return &Guard{failsafe: failsafe, last: initial, backoff: 1}
}

// Counts returns the recovery actions taken so far.
func (g *Guard) Counts() GuardCounts { return g.counts }

// FlushMetrics adds the recovery actions taken since the last flush to the
// greengpu_guard_* metrics, one Add per kind.
func (g *Guard) FlushMetrics() {
	d := g.counts.Sub(g.flushed)
	metricGuardHeldSamples.Add(d.HeldSamples)
	metricGuardRetries.Add(d.Retries)
	metricGuardDeferred.Add(d.DeferredApplies)
	metricGuardWatchdog.Add(d.WatchdogTrips)
	g.flushed = g.counts
}

// Enforced returns the decision the guard currently believes is in force.
func (g *Guard) Enforced() Decision { return g.last }

// InFailsafe reports whether the watchdog currently pins the failsafe
// decision.
func (g *Guard) InFailsafe() bool { return g.failsafeLeft > 0 }

// Sample passes a (core, mem) utilization pair through hold-last-good: a
// pair containing any non-finite reading is replaced wholesale by the last
// good pair (0, 0 before the first good sample — the same idle fallback
// sanitizeUtil uses) and held reports the substitution.
func (g *Guard) Sample(uc, um float64) (float64, float64, bool) {
	if isFinite(uc) && isFinite(um) {
		g.lastUc, g.lastUm = uc, um
		return uc, um, false
	}
	g.counts.HeldSamples++
	return g.lastUc, g.lastUm, true
}

// Step runs one epoch of the recovery machine. want is the controller's
// desired decision; gate attempts the hardware transition and reports its
// fate (plus the delay, in epochs, for TransitionDeferred). Step returns
// the decision actually in force for the coming epoch. gate is called at
// most once per Step, and only when a transition is genuinely attempted.
func (g *Guard) Step(want Decision, gate func() (TransitionResult, int)) Decision {
	// Watchdog failsafe pins the safe decision; normal control resumes
	// only after the hold expires.
	if g.failsafeLeft > 0 {
		g.failsafeLeft--
		return g.last
	}

	// A deferred transition lands regardless of what the controller wants
	// now: the hardware is completing an already-accepted write. While one
	// is still in flight no new write is issued — the driver owns the
	// clock until the accepted transition completes.
	if g.pendingIn > 0 {
		g.pendingIn--
		if g.pendingIn > 0 {
			return g.last
		}
		g.last = g.pending
		g.counts.DeferredApplies++
	}

	// Nothing to change.
	if want == g.last {
		g.fails = 0
		g.backoff = 1
		g.wait = 0
		return g.last
	}

	// Backing off after a failure: hold the old level, don't attempt.
	if g.wait > 0 {
		g.wait--
		return g.last
	}

	retrying := g.fails > 0
	outcome, delay := gate()
	switch outcome {
	case TransitionApplied:
		if retrying {
			g.counts.Retries++
		}
		g.last = want
		g.pendingIn = 0
		g.fails = 0
		g.backoff = 1
	case TransitionDeferred:
		if retrying {
			g.counts.Retries++
		}
		if delay <= 0 {
			delay = 1
		}
		g.pending = want
		g.pendingIn = delay
		g.fails = 0
		g.backoff = 1
	case TransitionFailed:
		if retrying {
			g.counts.Retries++
		}
		g.fails++
		g.wait = g.backoff
		g.backoff *= 2
		if g.fails >= watchdogK {
			g.counts.WatchdogTrips++
			g.failsafeLeft = failsafeHold
			// The failsafe is the platform's reset state and is modelled
			// as always reachable — it does not pass through the gate.
			g.last = g.failsafe
			g.pendingIn = 0
			g.fails = 0
			g.backoff = 1
			g.wait = 0
		}
	}
	return g.last
}

func isFinite(f float64) bool {
	// NaN != NaN; the subtraction overflows only for ±Inf.
	return f == f && f-f == 0
}
