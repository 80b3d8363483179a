package experiments

import (
	"fmt"

	"greengpu/internal/core"
	"greengpu/internal/faultinject"
	"greengpu/internal/parallel"
	"greengpu/internal/trace"
)

// This file holds the fault-resilience study docs/ROBUSTNESS.md describes:
// how gracefully the hardened holistic controller degrades when the
// testbed misbehaves the way the paper's real hardware did. Each fault
// class is swept alone at increasing intensity, plus the all-classes
// default plan, and every arm is compared against the fault-free holistic
// run of the same workload. The study has no paper figure — the paper's
// §VI discussion of nvidia-smi polling and Wattsup dropouts is qualitative
// — but it is the repo's headline robustness evidence: every row
// completes, and the deltas quantify the price of each recovery path.

// ResilienceRow is one (workload, fault class, intensity) arm's outcome.
type ResilienceRow struct {
	Workload string
	// Class names the fault class swept; "none" is the fault-free
	// reference arm and "all" the moderate all-classes default plan.
	Class string
	// Intensity is the per-opportunity rate (or sigma) injected; negative
	// for the "none" arm (nothing injected) and the "all" arm, whose
	// per-class rates come from faultinject.Default.
	Intensity float64
	// Faults and Recoveries are the run's injected-fault and
	// recovery-action totals.
	Faults     faultinject.Counts
	Recoveries core.RecoveryCounts
	// EnergyDelta and ExecDelta are relative to the fault-free holistic
	// run of the same workload (0 for the reference arm itself).
	EnergyDelta float64
	ExecDelta   float64
}

// resilienceSeed is the base seed of the resilience study. Every arm's
// plan seed derives from it with parallel.TaskSeed over the arm's position
// in the sweep, so the whole study is a pure function of this constant
// under any worker count.
const resilienceSeed = 0xfa17

// resilienceIntensities is the per-class intensity sweep.
var resilienceIntensities = []float64{0.05, 0.20, 0.50}

// resilienceClasses maps each fault class to a single-class plan at
// intensity x. Classes are injected alone so a row's deltas are
// attributable; the "all" arm covers interactions.
var resilienceClasses = []struct {
	name string
	plan func(seed uint64, x float64) faultinject.Plan
}{
	{"sensor-noise", func(s uint64, x float64) faultinject.Plan {
		return faultinject.Plan{Seed: s, GPUNoiseSigma: x, CPUNoiseSigma: x}
	}},
	{"sensor-drop", func(s uint64, x float64) faultinject.Plan {
		return faultinject.Plan{Seed: s, GPUDropRate: x, CPUDropRate: x}
	}},
	{"sensor-stale", func(s uint64, x float64) faultinject.Plan {
		return faultinject.Plan{Seed: s, GPUStaleRate: x, CPUStaleRate: x}
	}},
	{"transition-reject", func(s uint64, x float64) faultinject.Plan {
		return faultinject.Plan{Seed: s, TransitionRejectRate: x}
	}},
	{"transition-delay", func(s uint64, x float64) faultinject.Plan {
		return faultinject.Plan{Seed: s, TransitionDelayRate: x, TransitionDelayEpochs: 2}
	}},
	{"meter", func(s uint64, x float64) faultinject.Plan {
		return faultinject.Plan{Seed: s, MeterDropRate: x, MeterSpikeRate: x / 2, MeterSpikeFactor: 3}
	}},
	{"straggler", func(s uint64, x float64) faultinject.Plan {
		return faultinject.Plan{Seed: s, StragglerRate: x, StragglerFactor: 1.5}
	}},
}

// FaultResilience sweeps every fault class at increasing intensity on the
// hardened holistic controller, comparing each arm against the fault-free
// holistic run of the same workload. Arms are independent simulation
// points: plans are plain data, every seed derives from the arm's stable
// sweep position, and the rows come back in sweep order — so the study is
// byte-identical at any Jobs count and memoizes through the run cache.
func (e *Env) FaultResilience(names ...string) ([]ResilienceRow, error) {
	clean, err := mapPoints(e, names, func(_ int, name string) (*core.Result, error) {
		return e.run(name, core.DefaultConfig(core.Holistic))
	})
	if err != nil {
		return nil, err
	}
	cleanByName := make(map[string]*core.Result, len(names))
	for i, name := range names {
		cleanByName[name] = clean[i]
	}

	type arm struct {
		workload  string
		class     string
		intensity float64
		plan      faultinject.Plan
	}
	var arms []arm
	next := 0
	seed := func() uint64 {
		s := parallel.TaskSeed(resilienceSeed, next)
		next++
		return s
	}
	for _, name := range names {
		for _, c := range resilienceClasses {
			for _, x := range resilienceIntensities {
				arms = append(arms, arm{name, c.name, x, c.plan(seed(), x)})
			}
		}
		arms = append(arms, arm{name, "all", -1, faultinject.Default(seed())})
	}

	faulty, err := mapPoints(e, arms, func(_ int, a arm) (ResilienceRow, error) {
		cfg := core.DefaultConfig(core.Holistic)
		plan := a.plan
		cfg.FaultPlan = &plan
		r, err := e.run(a.workload, cfg)
		if err != nil {
			return ResilienceRow{}, err
		}
		base := cleanByName[a.workload]
		return ResilienceRow{
			Workload:    a.workload,
			Class:       a.class,
			Intensity:   a.intensity,
			Faults:      r.Faults,
			Recoveries:  r.Recoveries,
			EnergyDelta: float64(r.Energy)/float64(base.Energy) - 1,
			ExecDelta:   float64(r.TotalTime)/float64(base.TotalTime) - 1,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	// Interleave: the fault-free reference row leads each workload's block.
	perWorkload := len(resilienceClasses)*len(resilienceIntensities) + 1
	var rows []ResilienceRow
	for i, name := range names {
		rows = append(rows, ResilienceRow{Workload: name, Class: "none", Intensity: -1})
		rows = append(rows, faulty[i*perWorkload:(i+1)*perWorkload]...)
	}
	return rows, nil
}

// FaultResilienceTable renders the resilience study. Every cell is a pure
// function of the deterministic rows, so the CSV is byte-identical at any
// worker count — `make chaos` diffs -jobs 1 against -jobs 8.
func FaultResilienceTable(rows []ResilienceRow) *trace.Table {
	t := trace.NewTable("Fault resilience — hardened holistic vs fault-free",
		"workload", "fault class", "intensity", "faults", "held", "retries",
		"deferred", "watchdog trips", "energy delta %", "exec delta %")
	for _, r := range rows {
		intensity := "-"
		if r.Intensity >= 0 {
			intensity = fmt.Sprintf("%.2f", r.Intensity)
		}
		t.AddRow(
			r.Workload,
			r.Class,
			intensity,
			fmt.Sprintf("%d", r.Faults.Total()),
			fmt.Sprintf("%d", r.Recoveries.HeldSamples),
			fmt.Sprintf("%d", r.Recoveries.Retries),
			fmt.Sprintf("%d", r.Recoveries.DeferredApplies),
			fmt.Sprintf("%d", r.Recoveries.WatchdogTrips),
			fmt.Sprintf("%.2f", r.EnergyDelta*100),
			fmt.Sprintf("%.2f", r.ExecDelta*100))
	}
	return t
}
