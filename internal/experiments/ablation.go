package experiments

import (
	"fmt"
	"time"

	"greengpu/internal/core"
	"greengpu/internal/division"
	"greengpu/internal/dvfs"
	"greengpu/internal/faultinject"
	"greengpu/internal/trace"
	"greengpu/internal/units"
)

// This file holds the ablation studies DESIGN.md §6 calls out: sensitivity
// of the two tiers to their tuning constants and robustness to sensor
// faults. None of these reproduce a specific paper figure; they probe the
// design choices the paper justifies qualitatively (step size trade-off in
// §V-B, safeguard necessity, the manually tuned α/β/φ in §V-A, the
// tier-decoupling argument in §IV).

// StepRow is one division step size's outcome.
type StepRow struct {
	Step float64
	// ConvergeIters is the first iteration after which the ratio stayed
	// fixed; -1 if it never settled.
	ConvergeIters int
	// Flips counts ratio changes in the second half of the run —
	// post-convergence oscillation.
	Flips  int
	Energy units.Energy
}

// AblationDivisionStep sweeps the division step size. The paper's argument:
// small steps converge slowly, large steps oscillate; 5% balances the two.
func (e *Env) AblationDivisionStep(name string, steps []float64) ([]StepRow, error) {
	return mapPoints(e, steps, func(_ int, step float64) (StepRow, error) {
		cfg := core.DefaultConfig(core.Division)
		cfg.Division.Step = step
		r, err := e.run(name, cfg)
		if err != nil {
			return StepRow{}, err
		}
		return StepRow{
			Step:          step,
			ConvergeIters: convergeIter(r.Iterations),
			Flips:         tailFlips(r.Iterations),
			Energy:        r.Energy,
		}, nil
	})
}

// convergeTolerance treats ratios this close as settled — continuous
// policies (Qilin) refit every iteration and jitter in float noise.
const convergeTolerance = 1e-3

func convergeIter(iters []core.IterationStats) int {
	if len(iters) == 0 {
		return -1
	}
	settled := func(a, b float64) bool {
		d := a - b
		return d < convergeTolerance && d > -convergeTolerance
	}
	final := iters[len(iters)-1].R
	at := len(iters) - 1
	for i := len(iters) - 1; i >= 0; i-- {
		if !settled(iters[i].R, final) {
			break
		}
		at = i
	}
	if at == len(iters)-1 && len(iters) > 1 && !settled(iters[at].R, iters[at-1].R) {
		return -1 // still moving on the last iteration
	}
	return at
}

func tailFlips(iters []core.IterationStats) int {
	flips := 0
	for i := len(iters)/2 + 1; i < len(iters); i++ {
		if iters[i].R != iters[i-1].R {
			flips++
		}
	}
	return flips
}

// SafeguardRow compares one workload with and without the oscillation
// safeguard.
type SafeguardRow struct {
	Workload       string
	EnergyWith     units.Energy
	EnergyWithout  units.Energy
	FlipsWith      int
	FlipsWithout   int
	SafeguardHolds int // times the safeguard kept the ratio
}

// AblationSafeguard runs the §V-B safeguard A/B. The two arms are
// independent runs, so they execute concurrently.
func (e *Env) AblationSafeguard(name string) (*SafeguardRow, error) {
	row := &SafeguardRow{Workload: name}
	arms, err := mapPoints(e, []bool{true, false}, func(_ int, safeguard bool) (*core.Result, error) {
		cfg := core.DefaultConfig(core.Division)
		cfg.Division.Safeguard = safeguard
		return e.run(name, cfg)
	})
	if err != nil {
		return nil, err
	}
	with, without := arms[0], arms[1]
	row.EnergyWith = with.Energy
	row.EnergyWithout = without.Energy
	row.FlipsWith = tailFlips(with.Iterations)
	row.FlipsWithout = tailFlips(without.Iterations)
	for _, obs := range with.DivisionHistory {
		if obs.Action == division.ActionHoldSafeguard {
			row.SafeguardHolds++
		}
	}
	return row, nil
}

// ScalerParamRow is one (α_c, α_m, φ, β) variant's outcome on a GPU-only
// frequency-scaling run.
type ScalerParamRow struct {
	Params    dvfs.Params
	GPUSaving float64
	ExecDelta float64
}

// AblationScalerParams sweeps WMA constants around the paper's values on
// one workload, reporting GPU energy saving and execution cost vs
// best-performance.
func (e *Env) AblationScalerParams(name string, variants []dvfs.Params) ([]ScalerParamRow, error) {
	base, err := e.run(name, baselineConfig(0))
	if err != nil {
		return nil, err
	}
	return mapPoints(e, variants, func(_ int, p dvfs.Params) (ScalerParamRow, error) {
		cfg := core.DefaultConfig(core.FreqScaling)
		cfg.GPUScaler = p
		r, err := e.run(name, cfg)
		if err != nil {
			return ScalerParamRow{}, err
		}
		return ScalerParamRow{
			Params:    p,
			GPUSaving: 1 - float64(r.EnergyGPU)/float64(base.EnergyGPU),
			ExecDelta: float64(r.TotalTime)/float64(base.TotalTime) - 1,
		}, nil
	})
}

// DecouplingRow is one DVFS-interval setting's outcome under the holistic
// mode — probing §IV's argument that the division period must be much
// longer than the scaling period.
type DecouplingRow struct {
	DVFSInterval time.Duration
	// IterationsPerDivision is roughly how many scaling decisions fit in
	// one division interval.
	StepsPerIteration float64
	Energy            units.Energy
	ExecTime          time.Duration
	RatioFlips        int
}

// AblationDecoupling sweeps tier 2's interval under the holistic mode.
func (e *Env) AblationDecoupling(name string, intervals []time.Duration) ([]DecouplingRow, error) {
	return mapPoints(e, intervals, func(_ int, iv time.Duration) (DecouplingRow, error) {
		cfg := core.DefaultConfig(core.Holistic)
		cfg.DVFSInterval = iv
		r, err := e.run(name, cfg)
		if err != nil {
			return DecouplingRow{}, err
		}
		steps := 0.0
		if len(r.Iterations) > 0 {
			steps = float64(r.DVFSSteps) / float64(len(r.Iterations))
		}
		return DecouplingRow{
			DVFSInterval:      iv,
			StepsPerIteration: steps,
			Energy:            r.Energy,
			ExecTime:          r.TotalTime,
			RatioFlips:        tailFlips(r.Iterations),
		}, nil
	})
}

// NoiseRow is one sensor-noise level's outcome.
type NoiseRow struct {
	Sigma     float64
	GPUSaving float64
	ExecDelta float64
}

// sensorNoiseSeed is the base seed for sensor-noise injection. The fault
// injector's GPU-noise channel derives the per-sigma stream from it.
const sensorNoiseSeed = 42

// AblationSensorNoise injects uniform ±sigma noise into the utilization
// readings and measures how gracefully the scaler degrades.
//
// The noise comes from internal/faultinject's GPU-sensor noise channel,
// which preserves this ablation's original stateless derivation: sample k
// of the sigma=σ run is the same value no matter which other runs
// executed, in what order, on how many workers, or which other sigmas
// appear in the sweep. Each row is therefore a pure function of
// (workload, sigma) under any execution schedule, and because a fault
// plan is plain data the rows memoize through the run cache too.
// TestAblationSensorNoiseGolden pins the rendered CSV byte-for-byte
// against results/ablations_5.csv.
func (e *Env) AblationSensorNoise(name string, sigmas []float64) ([]NoiseRow, error) {
	base, err := e.run(name, baselineConfig(0))
	if err != nil {
		return nil, err
	}
	return mapPoints(e, sigmas, func(_ int, sigma float64) (NoiseRow, error) {
		cfg := core.DefaultConfig(core.FreqScaling)
		cfg.FaultPlan = &faultinject.Plan{Seed: sensorNoiseSeed, GPUNoiseSigma: sigma}
		r, err := e.run(name, cfg)
		if err != nil {
			return NoiseRow{}, err
		}
		return NoiseRow{
			Sigma:     sigma,
			GPUSaving: 1 - float64(r.EnergyGPU)/float64(base.EnergyGPU),
			ExecDelta: float64(r.TotalTime)/float64(base.TotalTime) - 1,
		}, nil
	})
}

// NoiseTable renders the sensor-noise ablation rows. It is the exact
// rendering AblationTables emits as its fifth table; the golden-diff test
// uses it to regenerate results/ablations_5.csv byte-for-byte.
func NoiseTable(name string, rows []NoiseRow) *trace.Table {
	t := trace.NewTable("Ablation — utilization sensor noise ("+name+", GPU-only)",
		"noise ±", "gpu saving %", "exec delta %")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.2f", r.Sigma),
			fmt.Sprintf("%.2f", r.GPUSaving*100),
			fmt.Sprintf("%.2f", r.ExecDelta*100))
	}
	return t
}

// GammaRow is one overlap-factor setting's Fig. 6-style summary.
type GammaRow struct {
	Gamma        float64
	AvgGPUSaving float64
	AvgExecDelta float64
}

// AblationGamma recalibrates the whole environment at different overlap
// factors and reports how the frequency-scaling savings shift — the
// sensitivity of the reproduction to the one free constant in the GPU
// timing model.
func (e *Env) AblationGamma(gammas []float64) ([]GammaRow, error) {
	return mapPoints(e, gammas, func(_ int, g float64) (GammaRow, error) {
		gcfg := e.GPU
		gcfg.OverlapGamma = g
		env2, err := e.derive(gcfg, e.CPU, e.Bus)
		if err != nil {
			return GammaRow{}, err
		}
		fig6, err := env2.Fig6()
		if err != nil {
			return GammaRow{}, err
		}
		return GammaRow{
			Gamma:        g,
			AvgGPUSaving: fig6.Summary.AvgGPUSaving,
			AvgExecDelta: fig6.Summary.AvgExecDelta,
		}, nil
	})
}

// AblationTables renders all ablations for one divisible workload into
// text tables.
func (e *Env) AblationTables(name string) ([]*trace.Table, error) {
	var tables []*trace.Table

	steps, err := e.AblationDivisionStep(name, []float64{0.01, 0.02, 0.05, 0.10, 0.20})
	if err != nil {
		return nil, err
	}
	t := trace.NewTable("Ablation — division step size ("+name+")",
		"step %", "converged after", "tail flips", "energy (kJ)")
	for _, r := range steps {
		conv := fmt.Sprintf("%d", r.ConvergeIters)
		if r.ConvergeIters < 0 {
			conv = "never"
		}
		t.AddRow(fmt.Sprintf("%.0f", r.Step*100), conv,
			fmt.Sprintf("%d", r.Flips), fmt.Sprintf("%.1f", r.Energy.Joules()/1e3))
	}
	tables = append(tables, t)

	sg, err := e.AblationSafeguard(name)
	if err != nil {
		return nil, err
	}
	t = trace.NewTable("Ablation — oscillation safeguard ("+name+")",
		"variant", "energy (kJ)", "tail flips", "safeguard holds")
	t.AddRow("with", fmt.Sprintf("%.1f", sg.EnergyWith.Joules()/1e3),
		fmt.Sprintf("%d", sg.FlipsWith), fmt.Sprintf("%d", sg.SafeguardHolds))
	t.AddRow("without", fmt.Sprintf("%.1f", sg.EnergyWithout.Joules()/1e3),
		fmt.Sprintf("%d", sg.FlipsWithout), "-")
	tables = append(tables, t)

	paper := dvfs.DefaultParams()
	variants := []dvfs.Params{
		paper,
		{AlphaCore: 0.5, AlphaMem: 0.5, Phi: paper.Phi, Beta: paper.Beta},
		{AlphaCore: 0.02, AlphaMem: 0.02, Phi: paper.Phi, Beta: paper.Beta},
		{AlphaCore: paper.AlphaCore, AlphaMem: paper.AlphaMem, Phi: 0.7, Beta: paper.Beta},
		{AlphaCore: paper.AlphaCore, AlphaMem: paper.AlphaMem, Phi: paper.Phi, Beta: 0.8},
	}
	params, err := e.AblationScalerParams(name, variants)
	if err != nil {
		return nil, err
	}
	t = trace.NewTable("Ablation — WMA constants ("+name+", GPU-only)",
		"alpha_c", "alpha_m", "phi", "beta", "gpu saving %", "exec delta %")
	for _, r := range params {
		t.AddRow(
			fmt.Sprintf("%.2f", r.Params.AlphaCore),
			fmt.Sprintf("%.2f", r.Params.AlphaMem),
			fmt.Sprintf("%.2f", r.Params.Phi),
			fmt.Sprintf("%.2f", r.Params.Beta),
			fmt.Sprintf("%.2f", r.GPUSaving*100),
			fmt.Sprintf("%.2f", r.ExecDelta*100))
	}
	tables = append(tables, t)

	dec, err := e.AblationDecoupling(name, []time.Duration{
		time.Second, 3 * time.Second, 10 * time.Second, 30 * time.Second, 60 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	t = trace.NewTable("Ablation — tier decoupling ("+name+", holistic)",
		"dvfs interval (s)", "steps/iteration", "energy (kJ)", "exec (s)", "tail flips")
	for _, r := range dec {
		t.AddRow(
			fmt.Sprintf("%.0f", r.DVFSInterval.Seconds()),
			fmt.Sprintf("%.1f", r.StepsPerIteration),
			fmt.Sprintf("%.1f", r.Energy.Joules()/1e3),
			fmt.Sprintf("%.0f", r.ExecTime.Seconds()),
			fmt.Sprintf("%d", r.RatioFlips))
	}
	tables = append(tables, t)

	noise, err := e.AblationSensorNoise(name, []float64{0, 0.05, 0.10, 0.20, 0.40})
	if err != nil {
		return nil, err
	}
	tables = append(tables, NoiseTable(name, noise))

	// γ is bounded above by the workload set's feasibility: bfs at
	// (0.85, 0.82) requires max + γ·min ≤ 1, i.e. γ ≤ 0.17 (nbody binds slightly tighter).
	gammas, err := e.AblationGamma([]float64{0, 0.05, 0.10, 0.15})
	if err != nil {
		return nil, err
	}
	t = trace.NewTable("Ablation — overlap factor γ (whole workload set)",
		"gamma", "avg gpu saving %", "avg exec delta %")
	for _, r := range gammas {
		t.AddRow(
			fmt.Sprintf("%.2f", r.Gamma),
			fmt.Sprintf("%.2f", r.AvgGPUSaving*100),
			fmt.Sprintf("%.2f", r.AvgExecDelta*100))
	}
	tables = append(tables, t)

	return tables, nil
}
