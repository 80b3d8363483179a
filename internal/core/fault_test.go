package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"greengpu/internal/faultinject"
	"greengpu/internal/telemetry"
	"greengpu/internal/testbed"
	"greengpu/internal/workload"
)

// TestNilAndZeroPlansAreIdentical: a nil FaultPlan and the Zero plan must
// both leave the run bit-identical to the legacy fault-free path.
func TestNilAndZeroPlansAreIdentical(t *testing.T) {
	base := runMode(t, "kmeans", Holistic, nil)
	zero := runMode(t, "kmeans", Holistic, func(c *Config) {
		c.FaultPlan = &faultinject.Plan{}
	})
	if !reflect.DeepEqual(base, zero) {
		t.Fatal("Zero fault plan changed the result vs nil plan")
	}
	if base.Faults.Total() != 0 || base.Recoveries.Total() != 0 {
		t.Fatalf("fault-free run reported faults %+v recoveries %+v", base.Faults, base.Recoveries)
	}
}

// TestFaultRunsAreDeterministic: the same plan and configuration replay to
// deeply equal results — fault sequences are pure functions of the seed.
func TestFaultRunsAreDeterministic(t *testing.T) {
	plan := faultinject.Default(99)
	mut := func(c *Config) { c.FaultPlan = &plan }
	a := runMode(t, "kmeans", Holistic, mut)
	b := runMode(t, "kmeans", Holistic, mut)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs under the same fault plan diverged")
	}
	if a.Faults.Total() == 0 {
		t.Fatal("default plan injected no faults")
	}
}

// TestWatchdogFiresUnderTotalTransitionFailure: with every GPU transition
// rejected, the watchdog must trip after K consecutive failures, pin the
// failsafe levels, and the run must still complete without error.
func TestWatchdogFiresUnderTotalTransitionFailure(t *testing.T) {
	plan := faultinject.Plan{Seed: 1, TransitionRejectRate: 1}
	res := runMode(t, "kmeans", Holistic, func(c *Config) {
		c.FaultPlan = &plan
	})
	if res.Recoveries.WatchdogTrips == 0 {
		t.Fatal("watchdog never tripped with 100% transition rejection")
	}
	if res.Faults.TransRejected == 0 {
		t.Fatal("no rejected transitions counted")
	}
	// Scaling modes start at the lowest levels; every honest transition
	// fails, so only watchdog failsafes can move the clocks. The final
	// levels must be either the initial lowest or the failsafe peak.
	last := res.Iterations[len(res.Iterations)-1]
	gpu := testbed.GeForce8800GTX()
	atLowest := last.CoreLevel == 0 && last.MemLevel == 0
	atPeak := last.CoreLevel == len(gpu.CoreLevels)-1 && last.MemLevel == len(gpu.MemLevels)-1
	if !atLowest && !atPeak {
		t.Fatalf("final levels (%d,%d): transitions leaked past a fully rejecting actuator",
			last.CoreLevel, last.MemLevel)
	}
}

// TestDefaultPlanCompletesEveryWorkload: the headline resilience claim —
// under the moderate all-classes plan, hardened Holistic finishes every
// Rodinia workload without error and still does real work.
func TestDefaultPlanCompletesEveryWorkload(t *testing.T) {
	profiles, err := workload.Rodinia(testbed.GeForce8800GTX(), testbed.PhenomIIX2())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range profiles {
		plan := faultinject.Default(uint64(100 + i))
		cfg := DefaultConfig(Holistic)
		cfg.FaultPlan = &plan
		res, err := Run(testbed.New(), p, cfg)
		if err != nil {
			t.Fatalf("%s: run failed under default fault plan: %v", p.Name, err)
		}
		checkResult(t, res)
		if res.Energy <= 0 || res.TotalTime <= 0 {
			t.Fatalf("%s: degenerate result under faults: %+v", p.Name, res)
		}
		if res.Faults.Total() == 0 {
			t.Errorf("%s: default plan injected nothing", p.Name)
		}
	}
}

// TestIterationFaultCountsSumToRunTotals: per-iteration deltas must
// partition the run totals exactly.
func TestIterationFaultCountsSumToRunTotals(t *testing.T) {
	plan := faultinject.Default(7)
	res := runMode(t, "hotspot", Holistic, func(c *Config) { c.FaultPlan = &plan })
	var f faultinject.Counts
	var r RecoveryCounts
	for _, it := range res.Iterations {
		f.GPUSensorNoisy += it.Faults.GPUSensorNoisy
		f.GPUSensorDropped += it.Faults.GPUSensorDropped
		f.GPUSensorStale += it.Faults.GPUSensorStale
		f.CPUSensorNoisy += it.Faults.CPUSensorNoisy
		f.CPUSensorDropped += it.Faults.CPUSensorDropped
		f.CPUSensorStale += it.Faults.CPUSensorStale
		f.TransRejected += it.Faults.TransRejected
		f.TransDelayed += it.Faults.TransDelayed
		f.MeterDropouts += it.Faults.MeterDropouts
		f.MeterSpikes += it.Faults.MeterSpikes
		f.Stragglers += it.Faults.Stragglers
		r.HeldSamples += it.Recoveries.HeldSamples
		r.Retries += it.Recoveries.Retries
		r.DeferredApplies += it.Recoveries.DeferredApplies
		r.WatchdogTrips += it.Recoveries.WatchdogTrips
	}
	// Faults injected after the last iteration ends (none: tickers stop
	// with the run) would show up here as a mismatch.
	if f != res.Faults {
		t.Fatalf("iteration fault sums %+v != run totals %+v", f, res.Faults)
	}
	if r != res.Recoveries {
		t.Fatalf("iteration recovery sums %+v != run totals %+v", r, res.Recoveries)
	}
}

// TestStragglerStretchesIterations: a guaranteed straggler on every
// iteration must lengthen the run relative to fault-free, and must count.
func TestStragglerStretchesIterations(t *testing.T) {
	base := runMode(t, "kmeans", Baseline, nil)
	plan := faultinject.Plan{Seed: 3, StragglerRate: 1, StragglerFactor: 2}
	slow := runMode(t, "kmeans", Baseline, func(c *Config) { c.FaultPlan = &plan })
	if slow.TotalTime <= base.TotalTime {
		t.Fatalf("stragglers did not stretch the run: %v vs %v", slow.TotalTime, base.TotalTime)
	}
	if got, want := slow.Faults.Stragglers, uint64(len(slow.Iterations)); got != want {
		t.Fatalf("Stragglers = %d, want one per iteration (%d)", got, want)
	}
}

// TestSensorDropsAreHeld: with every GPU sample dropped, hold-last-good
// must absorb every epoch (held samples == epochs) and the run completes.
func TestSensorDropsAreHeld(t *testing.T) {
	plan := faultinject.Plan{Seed: 5, GPUDropRate: 1}
	res := runMode(t, "kmeans", FreqScaling, func(c *Config) { c.FaultPlan = &plan })
	if res.Recoveries.HeldSamples == 0 {
		t.Fatal("no held samples with 100% sensor drop")
	}
	if res.Recoveries.HeldSamples != res.Faults.GPUSensorDropped {
		t.Fatalf("held %d samples but dropped %d", res.Recoveries.HeldSamples, res.Faults.GPUSensorDropped)
	}
}

// TestCPUSensorDropsAreHeld: every dropped CPU sample is held by the
// governor's hold-last-good, in the run's recovery counts and in its
// metric, while the governor hook still sees the raw (NaN) reading.
func TestCPUSensorDropsAreHeld(t *testing.T) {
	was := telemetry.Enabled()
	telemetry.Enable()
	defer func() {
		if !was {
			telemetry.Disable()
		}
	}()
	const held = "greengpu_governor_held_samples_total"
	for _, c := range []struct {
		mode Mode
		rate float64
	}{{FreqScaling, 1}, {Holistic, 0.3}} {
		plan := faultinject.Plan{Seed: 5, CPUDropRate: c.rate}
		var nans uint64
		before := telemetry.Default.CounterValue(held)
		res := runMode(t, "kmeans", c.mode, func(cfg *Config) {
			cfg.FaultPlan = &plan
			cfg.OnCPUGovernor = func(_ time.Duration, util float64, _ int) {
				if math.IsNaN(util) {
					nans++
				}
			}
		})
		dropped := res.Faults.CPUSensorDropped
		if dropped == 0 {
			t.Fatalf("%v at drop rate %v: no CPU sample dropped", c.mode, c.rate)
		}
		if res.Recoveries.HeldSamples != dropped {
			t.Errorf("%v at drop rate %v: held %d samples, dropped %d", c.mode, c.rate, res.Recoveries.HeldSamples, dropped)
		}
		if got := telemetry.Default.CounterValue(held) - before; got != dropped {
			t.Errorf("%v at drop rate %v: %s advanced by %d, dropped %d", c.mode, c.rate, held, got, dropped)
		}
		if nans != dropped {
			t.Errorf("%v at drop rate %v: governor hook saw %d NaN samples, dropped %d", c.mode, c.rate, nans, dropped)
		}
	}
}

// TestFaultFreeEpochPathAddsNoAllocations pins the zero-cost-off contract
// at the whole-run level: doubling the number of DVFS epochs (halving the
// interval) must not change the run's allocation count when no fault plan
// is armed — the per-epoch control path, including the fault-injection nil
// checks, is allocation-free.
func TestFaultFreeEpochPathAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector runtime perturbs whole-run allocation counts")
	}
	p := profileByName(t, "kmeans")
	run := func(interval time.Duration) func() {
		return func() {
			cfg := DefaultConfig(Holistic)
			cfg.DVFSInterval = interval
			cfg.Iterations = 2
			if _, err := Run(testbed.New(), p, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	few := testing.AllocsPerRun(10, run(3*time.Second))
	many := testing.AllocsPerRun(10, run(time.Second))
	if many > few {
		t.Fatalf("tripling DVFS epochs grew allocations %.0f → %.0f; the epoch path must be allocation-free", few, many)
	}
}
