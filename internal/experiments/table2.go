package experiments

import (
	"fmt"
	"time"

	"greengpu/internal/core"
	"greengpu/internal/gpusim"
	"greengpu/internal/sim"
	"greengpu/internal/trace"
	"greengpu/internal/workload"
)

// Table2Row is one workload's measured characterization.
type Table2Row struct {
	Workload    string
	Description string
	Enlargement string
	// CoreUtil and MemUtil are measured on the simulated device at peak
	// clocks (the nvidia-smi numbers of the paper's methodology).
	CoreUtil float64
	MemUtil  float64
	// CoreClass and MemClass are the qualitative levels of Table II.
	CoreClass workload.Class
	MemClass  workload.Class
	// Fluctuating marks QG/streamcluster-style phase variability.
	Fluctuating bool
	// IterationTime is one iteration's all-GPU execution time at peak.
	IterationTime time.Duration
}

// Table2Result is the measured workload characterization.
type Table2Result struct {
	Rows []Table2Row
}

// Table2 measures every profile on the simulated device at peak clocks and
// reports the Table II characterization. Utilizations come from the device
// counters (not the calibration targets), so this experiment also
// continuously validates the calibration round-trip.
func (e *Env) Table2() (*Table2Result, error) {
	rows, err := mapPoints(e, e.Profiles, func(_ int, p *workload.Profile) (Table2Row, error) {
		// Each measurement gets its own single-purpose simulation engine
		// and device, per the fresh-machine contract.
		eng := sim.New()
		g := gpusim.New(eng, e.GPU)
		g.SetLevels(len(e.GPU.CoreLevels)-1, len(e.GPU.MemLevels)-1)
		before := g.Counters()
		k := p.GPUKernel(p.Name, workload.UnitsPerIteration)
		g.Submit(k)
		eng.Run()
		w := g.Counters().Since(before)
		return Table2Row{
			Workload:      p.Name,
			Description:   p.Description,
			Enlargement:   p.Enlargement,
			CoreUtil:      w.CoreUtil,
			MemUtil:       w.MemUtil,
			CoreClass:     workload.Classify(w.CoreUtil),
			MemClass:      workload.Classify(w.MemUtil),
			Fluctuating:   p.Fluctuating(),
			IterationTime: k.ExecTime(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table2Result{Rows: rows}, nil
}

// Table renders the characterization in Table II's layout.
func (r *Table2Result) Table() *trace.Table {
	t := trace.NewTable(
		"Table II — workload characterization measured at peak clocks",
		"workload", "enlargement", "core util", "mem util", "core class", "mem class", "fluctuating", "iter time (s)", "description")
	for _, row := range r.Rows {
		t.AddRow(row.Workload,
			row.Enlargement,
			fmt.Sprintf("%.2f", row.CoreUtil),
			fmt.Sprintf("%.2f", row.MemUtil),
			row.CoreClass.String(),
			row.MemClass.String(),
			fmt.Sprintf("%v", row.Fluctuating),
			fmt.Sprintf("%.0f", row.IterationTime.Seconds()),
			row.Description)
	}
	return t
}

// SweepRow is one workload's §VII-B optimality study result.
type SweepRow struct {
	Workload string
	// OptimalShare is the static division with minimum energy (5% grid).
	OptimalShare float64
	// ConvergedShare is what the dynamic algorithm settles on.
	ConvergedShare float64
	// DynamicEnergyOverOptimal is the dynamic run's energy relative to
	// the optimal static division (1.0 = matched the optimum).
	DynamicEnergyOverOptimal float64
	// ExecDeltaVsOptimal is the dynamic run's execution-time increase
	// over the optimal static division (the paper reports 5.45%).
	ExecDeltaVsOptimal float64
	// SavingShare is the fraction of the optimal static division's
	// energy saving (vs all-GPU) that the dynamic algorithm captured
	// (the paper reports 99% for hotspot).
	SavingShare float64
}

// SweepResult is the §VII-B study across workloads.
type SweepResult struct {
	Rows []SweepRow
}

// StaticSweep reproduces §VII-B's optimality analysis for the given
// workloads: a 5%-grid static division sweep locates the true energy
// optimum, which the dynamic division run is then scored against.
func (e *Env) StaticSweep(names ...string) (*SweepResult, error) {
	rows, err := mapPoints(e, names, func(_ int, name string) (SweepRow, error) {
		// Full-length runs on both sides so the dynamic algorithm's
		// convergence transient amortizes the way it did on the
		// testbed's enlarged workloads. The 5% grid underneath fans out
		// on the same worker pool.
		sweep, err := e.DivisionSweep(name, 0, 0.95, 0.05, 0)
		if err != nil {
			return SweepRow{}, err
		}
		energies := make([]float64, len(sweep.Points))
		for i, p := range sweep.Points {
			energies[i] = float64(p.Energy)
		}
		optIdx := trace.ArgMin(energies)
		opt := sweep.Points[optIdx]
		allGPU := sweep.Points[0]

		cfg := core.DefaultConfig(core.Division)
		dyn, err := e.run(name, cfg)
		if err != nil {
			return SweepRow{}, err
		}

		row := SweepRow{
			Workload:       name,
			OptimalShare:   opt.CPUShare,
			ConvergedShare: dyn.FinalRatio,
		}
		row.DynamicEnergyOverOptimal = float64(dyn.Energy) / float64(opt.Energy)
		row.ExecDeltaVsOptimal = float64(dyn.TotalTime)/float64(opt.Time) - 1
		maxSaving := float64(allGPU.Energy - opt.Energy)
		if maxSaving > 0 {
			row.SavingShare = float64(allGPU.Energy-dyn.Energy) / maxSaving
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &SweepResult{Rows: rows}, nil
}

// Table renders the optimality study.
func (r *SweepResult) Table() *trace.Table {
	t := trace.NewTable(
		"§VII-B — dynamic division vs optimal static division (5% grid)",
		"workload", "optimal cpu %", "converged cpu %", "energy vs optimal", "exec delta %", "captured saving %")
	for _, row := range r.Rows {
		t.AddRow(row.Workload,
			fmt.Sprintf("%.0f", row.OptimalShare*100),
			fmt.Sprintf("%.0f", row.ConvergedShare*100),
			fmt.Sprintf("%.4f", row.DynamicEnergyOverOptimal),
			fmt.Sprintf("%.2f", row.ExecDeltaVsOptimal*100),
			fmt.Sprintf("%.1f", row.SavingShare*100))
	}
	return t
}
