package experiments

import (
	"fmt"
	"time"

	"greengpu/internal/core"
	"greengpu/internal/cpusim"
	"greengpu/internal/division"
	"greengpu/internal/dvfs"
	"greengpu/internal/testbed"
	"greengpu/internal/trace"
	"greengpu/internal/units"
	"greengpu/internal/workload"
)

// This file holds the extension studies beyond the paper's evaluation:
// the Qilin-style divider comparison (§V-B's integration point made
// concrete), genuine asynchronous-communication runs validating the
// paper's Fig. 6c emulation methodology, actuator fault injection, and a
// device-portability check on a second GPU generation.

// DividerRow compares one division policy's outcome on one workload.
type DividerRow struct {
	Workload string
	Policy   string
	// ConvergedAfter is the first iteration after which the ratio stayed
	// fixed.
	ConvergedAfter int
	FinalRatio     float64
	Energy         units.Energy
	ExecTime       time.Duration
}

// DividerComparison runs the paper's step heuristic and the Qilin-style
// adaptive mapper head-to-head under division-only mode. Every
// (workload, policy) pair is an independent run; each task builds its own
// policy instance, since division policies carry per-run learning state.
func (e *Env) DividerComparison(names ...string) ([]DividerRow, error) {
	type comparisonTask struct {
		workload string
		policy   string
	}
	var tasks []comparisonTask
	for _, name := range names {
		tasks = append(tasks,
			comparisonTask{name, "greengpu-step"},
			comparisonTask{name, "qilin-adaptive"})
	}
	return mapPoints(e, tasks, func(_ int, tk comparisonTask) (DividerRow, error) {
		cfg := core.DefaultConfig(core.Division)
		if tk.policy == "qilin-adaptive" {
			cfg.DivisionPolicy = division.NewQilin(division.DefaultQilinConfig())
		}
		r, err := e.run(tk.workload, cfg)
		if err != nil {
			return DividerRow{}, err
		}
		return DividerRow{
			Workload:       tk.workload,
			Policy:         tk.policy,
			ConvergedAfter: convergeIter(r.Iterations),
			FinalRatio:     r.FinalRatio,
			Energy:         r.Energy,
			ExecTime:       r.TotalTime,
		}, nil
	})
}

// DividerComparisonTable renders the comparison.
func DividerComparisonTable(rows []DividerRow) *trace.Table {
	t := trace.NewTable(
		"Extension — division policies head-to-head (division-only mode)",
		"workload", "policy", "converged after", "final cpu %", "energy (kJ)", "exec (s)")
	for _, r := range rows {
		t.AddRow(r.Workload, r.Policy,
			fmt.Sprintf("%d", r.ConvergedAfter),
			fmt.Sprintf("%.1f", r.FinalRatio*100),
			fmt.Sprintf("%.1f", r.Energy.Joules()/1e3),
			fmt.Sprintf("%.0f", r.ExecTime.Seconds()))
	}
	return t
}

// AsyncRow validates the Fig. 6c emulation for one workload: the paper
// replaces spin-wait CPU energy with lowest-P-state idle energy to
// predict what genuinely asynchronous GPU communication would save; we
// can actually run that configuration (blocking waits + ondemand
// throttling the truly idle CPU) and compare.
type AsyncRow struct {
	Workload string
	// SpinEnergy is the measured energy of the synchronous run.
	SpinEnergy units.Energy
	// EmulatedEnergy applies the paper's Fig. 6c substitution to it.
	EmulatedEnergy units.Energy
	// AsyncEnergy is the genuine blocking-wait run.
	AsyncEnergy units.Energy
	// EmulationError is (emulated − genuine) / genuine: positive means
	// the emulation is conservative (predicts less saving than real).
	EmulationError float64
}

// AsyncValidation runs the synchronous (spin-wait) and genuine
// asynchronous (blocking-wait) frequency-scaling configurations for each
// workload and scores the paper's emulation against the real thing.
func (e *Env) AsyncValidation(names ...string) ([]AsyncRow, error) {
	idle := e.cpuIdlePowerAtLowest()
	return mapPoints(e, names, func(_ int, name string) (AsyncRow, error) {
		sync, err := e.run(name, scalingConfig())
		if err != nil {
			return AsyncRow{}, err
		}
		acfg := scalingConfig()
		acfg.SpinWait = false
		async, err := e.run(name, acfg)
		if err != nil {
			return AsyncRow{}, err
		}
		row := AsyncRow{
			Workload:       name,
			SpinEnergy:     sync.Energy,
			EmulatedEnergy: sync.EmulatedEnergyCPUThrottled(idle),
			AsyncEnergy:    async.Energy,
		}
		row.EmulationError = float64(row.EmulatedEnergy)/float64(row.AsyncEnergy) - 1
		return row, nil
	})
}

// AsyncValidationTable renders the validation.
func AsyncValidationTable(rows []AsyncRow) *trace.Table {
	t := trace.NewTable(
		"Extension — Fig. 6c emulation vs genuine asynchronous communication",
		"workload", "sync (kJ)", "emulated (kJ)", "genuine async (kJ)", "emulation error %")
	for _, r := range rows {
		t.AddRow(r.Workload,
			fmt.Sprintf("%.1f", r.SpinEnergy.Joules()/1e3),
			fmt.Sprintf("%.1f", r.EmulatedEnergy.Joules()/1e3),
			fmt.Sprintf("%.1f", r.AsyncEnergy.Joules()/1e3),
			fmt.Sprintf("%+.2f", r.EmulationError*100))
	}
	return t
}

// FaultRow is one actuator-fault scenario's outcome.
type FaultRow struct {
	Scenario  string
	GPUSaving float64
	ExecDelta float64
}

// ActuatorFaults runs the frequency-scaling tier with injected actuator
// faults: a memory clock stuck at its boot level, a core clock that only
// reaches level 3, and a fully stuck actuator. The framework must degrade
// gracefully (bounded slowdown) in every scenario.
func (e *Env) ActuatorFaults(name string) ([]FaultRow, error) {
	base, err := e.run(name, baselineConfig(0))
	if err != nil {
		return nil, err
	}
	type faultScenario struct {
		name   string
		filter func(dvfs.Decision) dvfs.Decision
	}
	scenarios := []faultScenario{
		{"healthy", nil},
		{"mem stuck at boot level", func(d dvfs.Decision) dvfs.Decision {
			d.MemLevel = 0
			return d
		}},
		{"core capped at level 3", func(d dvfs.Decision) dvfs.Decision {
			if d.CoreLevel > 3 {
				d.CoreLevel = 3
			}
			return d
		}},
		{"both stuck at peak", func(d dvfs.Decision) dvfs.Decision {
			return dvfs.Decision{CoreLevel: 5, MemLevel: 5}
		}},
	}
	return mapPoints(e, scenarios, func(_ int, s faultScenario) (FaultRow, error) {
		cfg := scalingConfig()
		cfg.ActuatorFilter = s.filter
		r, err := e.run(name, cfg)
		if err != nil {
			return FaultRow{}, err
		}
		return FaultRow{
			Scenario:  s.name,
			GPUSaving: 1 - float64(r.EnergyGPU)/float64(base.EnergyGPU),
			ExecDelta: float64(r.TotalTime)/float64(base.TotalTime) - 1,
		}, nil
	})
}

// ActuatorFaultsTable renders the fault study.
func ActuatorFaultsTable(name string, rows []FaultRow) *trace.Table {
	t := trace.NewTable(
		fmt.Sprintf("Extension — actuator fault injection (%s, GPU-only)", name),
		"scenario", "gpu saving %", "exec delta %")
	for _, r := range rows {
		t.AddRow(r.Scenario,
			fmt.Sprintf("%.2f", r.GPUSaving*100),
			fmt.Sprintf("%+.2f", r.ExecDelta*100))
	}
	return t
}

// PortabilityRow summarizes the framework on one device configuration.
type PortabilityRow struct {
	Device           string
	AvgGPUSaving     float64
	AvgExecDelta     float64
	HolisticSaving   float64 // kmeans+hotspot average vs baseline
	KmeansConverged  float64
	HotspotConverged float64
}

// Portability recalibrates the whole workload set against a second GPU
// generation (a GTX 280-class part) and re-runs the headline experiments.
// The algorithms carry no device-specific constants besides their
// published tuning, so the savings should transfer.
func (e *Env) Portability() ([]PortabilityRow, error) {
	type deviceCase struct {
		name string
		env  func() (*Env, error)
	}
	devices := []deviceCase{
		{"GeForce 8800 GTX", func() (*Env, error) {
			return e.derive(testbed.GeForce8800GTX(), testbed.PhenomIIX2(), testbed.PCIe())
		}},
		{"GTX 280-class", func() (*Env, error) {
			return e.derive(testbed.GTX280(), testbed.PhenomIIX2(), testbed.PCIe())
		}},
	}
	return mapPoints(e, devices, func(_ int, d deviceCase) (PortabilityRow, error) {
		env, err := d.env()
		if err != nil {
			return PortabilityRow{}, err
		}
		fig6, err := env.Fig6()
		if err != nil {
			return PortabilityRow{}, err
		}
		row := PortabilityRow{
			Device:       d.name,
			AvgGPUSaving: fig6.Summary.AvgGPUSaving,
			AvgExecDelta: fig6.Summary.AvgExecDelta,
		}
		var sum float64
		for _, name := range []string{"kmeans", "hotspot"} {
			f8, err := env.Fig8(name)
			if err != nil {
				return PortabilityRow{}, err
			}
			sum += f8.SavingVsBaseline
		}
		row.HolisticSaving = sum / 2
		for _, name := range []string{"kmeans", "hotspot"} {
			f7, err := env.Fig7(name)
			if err != nil {
				return PortabilityRow{}, err
			}
			if name == "kmeans" {
				row.KmeansConverged = f7.ConvergedRatio
			} else {
				row.HotspotConverged = f7.ConvergedRatio
			}
		}
		return row, nil
	})
}

// PortabilityTable renders the cross-device study.
func PortabilityTable(rows []PortabilityRow) *trace.Table {
	t := trace.NewTable(
		"Extension — device portability (same algorithms, recalibrated workloads)",
		"device", "avg gpu saving %", "avg exec delta %", "holistic saving %", "kmeans cpu %", "hotspot cpu %")
	for _, r := range rows {
		t.AddRow(r.Device,
			fmt.Sprintf("%.2f", r.AvgGPUSaving*100),
			fmt.Sprintf("%.2f", r.AvgExecDelta*100),
			fmt.Sprintf("%.2f", r.HolisticSaving*100),
			fmt.Sprintf("%.0f", r.KmeansConverged*100),
			fmt.Sprintf("%.0f", r.HotspotConverged*100))
	}
	return t
}

// Fixed8Row compares tier 2 on the float weight table vs the §VI 8-bit
// fixed-point table for one workload.
type Fixed8Row struct {
	Workload       string
	SavingFloat    float64
	SavingFixed8   float64
	ExecDeltaFloat float64
	ExecDeltaFixed float64
}

// Fixed8Comparison validates the paper's on-chip implementation argument:
// running the whole frequency-scaling tier on 8-bit weights should match
// the float implementation's savings within a fraction of a percent.
func (e *Env) Fixed8Comparison() ([]Fixed8Row, error) {
	return mapPoints(e, e.Profiles, func(_ int, p *workload.Profile) (Fixed8Row, error) {
		base, err := e.run(p.Name, baselineConfig(0))
		if err != nil {
			return Fixed8Row{}, err
		}
		fl, err := e.run(p.Name, scalingConfig())
		if err != nil {
			return Fixed8Row{}, err
		}
		fcfg := scalingConfig()
		fcfg.Fixed8Scaler = true
		fx, err := e.run(p.Name, fcfg)
		if err != nil {
			return Fixed8Row{}, err
		}
		return Fixed8Row{
			Workload:       p.Name,
			SavingFloat:    1 - float64(fl.EnergyGPU)/float64(base.EnergyGPU),
			SavingFixed8:   1 - float64(fx.EnergyGPU)/float64(base.EnergyGPU),
			ExecDeltaFloat: float64(fl.TotalTime)/float64(base.TotalTime) - 1,
			ExecDeltaFixed: float64(fx.TotalTime)/float64(base.TotalTime) - 1,
		}, nil
	})
}

// Fixed8ComparisonTable renders the hardware-precision study.
func Fixed8ComparisonTable(rows []Fixed8Row) *trace.Table {
	t := trace.NewTable(
		"Extension — §VI on-chip sketch: float64 vs 8-bit fixed-point weight table",
		"workload", "float saving %", "fixed8 saving %", "float exec %", "fixed8 exec %")
	for _, r := range rows {
		t.AddRow(r.Workload,
			fmt.Sprintf("%.2f", r.SavingFloat*100),
			fmt.Sprintf("%.2f", r.SavingFixed8*100),
			fmt.Sprintf("%+.2f", r.ExecDeltaFloat*100),
			fmt.Sprintf("%+.2f", r.ExecDeltaFixed*100))
	}
	return t
}

// CPURow is one processor variant's division outcome.
type CPURow struct {
	CPU            string
	Workload       string
	ConvergedShare float64
	Energy         units.Energy
	ExecTime       time.Duration
}

// CPUCapability keeps the workloads fixed (calibrated against the paper's
// dual-core testbed) and swaps in a quad-core processor: with twice the
// CPU throughput the balanced division point must shift toward larger CPU
// shares (kmeans: 1/(1+4) = 20% on the X2 vs 1/(1+2) ≈ 33% on the X4),
// and the division tier must find the new point without retuning.
func (e *Env) CPUCapability(names ...string) ([]CPURow, error) {
	type cpuCase struct {
		label    string
		cfg      func() cpusim.Config
		workload string
	}
	var tasks []cpuCase
	for _, c := range []cpuCase{
		{label: "Phenom II X2 (2 cores)", cfg: testbed.PhenomIIX2},
		{label: "Phenom II X4 (4 cores)", cfg: testbed.PhenomIIX4},
	} {
		for _, name := range names {
			tasks = append(tasks, cpuCase{label: c.label, cfg: c.cfg, workload: name})
		}
	}
	return mapPoints(e, tasks, func(_ int, tk cpuCase) (CPURow, error) {
		// The engine with only the processor swapped: the profiles keep
		// their X2 calibration, and the point keys under the processor
		// it ran on.
		swapped, err := e.on(e.GPU, tk.cfg(), e.Bus, e.Profiles)
		if err != nil {
			return CPURow{}, err
		}
		r, err := swapped.run(tk.workload, core.DefaultConfig(core.Division))
		if err != nil {
			return CPURow{}, err
		}
		return CPURow{
			CPU:            tk.label,
			Workload:       tk.workload,
			ConvergedShare: r.FinalRatio,
			Energy:         r.Energy,
			ExecTime:       r.TotalTime,
		}, nil
	})
}

// CPUCapabilityTable renders the processor sweep.
func CPUCapabilityTable(rows []CPURow) *trace.Table {
	t := trace.NewTable(
		"Extension — CPU capability sweep (division-only; workloads calibrated on the X2)",
		"processor", "workload", "converged cpu %", "energy (kJ)", "exec (s)")
	for _, r := range rows {
		t.AddRow(r.CPU, r.Workload,
			fmt.Sprintf("%.0f", r.ConvergedShare*100),
			fmt.Sprintf("%.1f", r.Energy.Joules()/1e3),
			fmt.Sprintf("%.0f", r.ExecTime.Seconds()))
	}
	return t
}

// SMRow compares energy-management strategies on a gatable device for one
// workload: GreenGPU's frequency scaling, Hong & Kim-style core-count
// throttling, and both combined (the Lee et al. direction).
type SMRow struct {
	Workload       string
	FreqSaving     float64
	SMSaving       float64
	CombinedSaving float64
	FreqExecDelta  float64
	SMExecDelta    float64
}

// SMComparison runs the frequency-vs-core-count comparison on a GTX 280-
// class device with 80% of core-domain power gatable per SM. The G80
// testbed card cannot gate SMs, so this study — like the paper's related
// work it quantifies — lives on the newer device generation.
func (e *Env) SMComparison() ([]SMRow, error) {
	gcfg := testbed.GTX280()
	gcfg.Power.CoreGatable = 0.8
	env2, err := e.derive(gcfg, e.CPU, e.Bus)
	if err != nil {
		return nil, err
	}

	peakPin := func(d dvfs.Decision) dvfs.Decision {
		n := len(gcfg.CoreLevels)
		m := len(gcfg.MemLevels)
		return dvfs.Decision{CoreLevel: n - 1, MemLevel: m - 1}
	}
	peakLevels := &core.Levels{
		Core: len(gcfg.CoreLevels) - 1,
		Mem:  len(gcfg.MemLevels) - 1,
		CPU:  len(e.CPU.PStates) - 1,
	}

	return mapPoints(env2, env2.Profiles, func(_ int, p *workload.Profile) (SMRow, error) {
		base, err := env2.run(p.Name, baselineConfig(0))
		if err != nil {
			return SMRow{}, err
		}

		// Frequency scaling only (GreenGPU tier 2).
		freq, err := env2.run(p.Name, scalingConfig())
		if err != nil {
			return SMRow{}, err
		}

		// Core-count scaling only: clocks pinned at peak, SM policy on.
		smCfg := scalingConfig()
		smCfg.SMScaling = true
		smCfg.ActuatorFilter = peakPin
		smCfg.InitialLevels = peakLevels
		sm, err := env2.run(p.Name, smCfg)
		if err != nil {
			return SMRow{}, err
		}

		// Both knobs.
		bothCfg := scalingConfig()
		bothCfg.SMScaling = true
		both, err := env2.run(p.Name, bothCfg)
		if err != nil {
			return SMRow{}, err
		}

		return SMRow{
			Workload:       p.Name,
			FreqSaving:     1 - float64(freq.EnergyGPU)/float64(base.EnergyGPU),
			SMSaving:       1 - float64(sm.EnergyGPU)/float64(base.EnergyGPU),
			CombinedSaving: 1 - float64(both.EnergyGPU)/float64(base.EnergyGPU),
			FreqExecDelta:  float64(freq.TotalTime)/float64(base.TotalTime) - 1,
			SMExecDelta:    float64(sm.TotalTime)/float64(base.TotalTime) - 1,
		}, nil
	})
}

// SMComparisonTable renders the strategy comparison.
func SMComparisonTable(rows []SMRow) *trace.Table {
	t := trace.NewTable(
		"Extension — frequency scaling vs SM-count throttling (GTX 280-class, 80% gatable)",
		"workload", "freq saving %", "sm saving %", "combined saving %", "freq exec %", "sm exec %")
	for _, r := range rows {
		t.AddRow(r.Workload,
			fmt.Sprintf("%.2f", r.FreqSaving*100),
			fmt.Sprintf("%.2f", r.SMSaving*100),
			fmt.Sprintf("%.2f", r.CombinedSaving*100),
			fmt.Sprintf("%+.2f", r.FreqExecDelta*100),
			fmt.Sprintf("%+.2f", r.SMExecDelta*100))
	}
	return t
}
