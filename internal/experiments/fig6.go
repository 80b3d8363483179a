package experiments

import (
	"fmt"
	"time"

	"greengpu/internal/trace"
	"greengpu/internal/units"
	"greengpu/internal/workload"
)

// Fig6Row is one workload's frequency-scaling result, spanning the three
// panels of Fig. 6.
type Fig6Row struct {
	Workload string

	// GPUSaving is panel (a): GPU energy saved vs best-performance.
	GPUSaving float64
	// DynamicSaving is panel (b): dynamic GPU energy (runtime minus idle)
	// saved vs best-performance.
	DynamicSaving float64
	// ExecDelta is panel (b)'s companion: execution-time increase.
	ExecDelta float64
	// SystemSaving is panel (c): whole-system energy saved when both the
	// CPU and GPU are throttled, with idle spin-waits accounted at the
	// lowest CPU P-state (the paper's emulation).
	SystemSaving float64

	ExecScaled time.Duration
	ExecBase   time.Duration
	GPUScaled  units.Energy
	GPUBase    units.Energy
}

// Fig6Summary aggregates the per-workload rows.
type Fig6Summary struct {
	AvgGPUSaving     float64
	MaxGPUSaving     float64
	AvgDynamicSaving float64
	AvgExecDelta     float64
	AvgSystemSaving  float64
}

// Fig6Result holds the full Fig. 6 dataset.
type Fig6Result struct {
	Rows    []Fig6Row
	Summary Fig6Summary
}

// Fig6 reproduces §VII-A: every Table II workload run GPU-only under the
// frequency-scaling tier, compared with the best-performance policy.
// The paper's headline numbers: 5.97% average GPU energy saving (up to
// 14.53%), 29.2% average dynamic saving at 2.95% longer execution, and
// 12.48% average saving when both CPU and GPU are throttled (emulated).
func (e *Env) Fig6() (*Fig6Result, error) {
	// Idle power of the GPU at its default (lowest) clocks defines the
	// "idle energy" subtracted in panel (b); the CPU analogue feeds the
	// panel (c) emulation. Both depend only on the device configurations,
	// so they are computed once, outside the fan-out.
	idleGPU := e.gpuIdlePowerAtLowest()
	idleCPU := e.cpuIdlePowerAtLowest()

	rows, err := mapPoints(e, e.Profiles, func(_ int, p *workload.Profile) (Fig6Row, error) {
		scaled, err := e.run(p.Name, scalingConfig())
		if err != nil {
			return Fig6Row{}, err
		}
		base, err := e.run(p.Name, baselineConfig(0))
		if err != nil {
			return Fig6Row{}, err
		}

		row := Fig6Row{
			Workload:   p.Name,
			ExecScaled: scaled.TotalTime,
			ExecBase:   base.TotalTime,
			GPUScaled:  scaled.EnergyGPU,
			GPUBase:    base.EnergyGPU,
		}
		row.GPUSaving = 1 - float64(scaled.EnergyGPU)/float64(base.EnergyGPU)
		dynScaled := scaled.EnergyGPU - idleGPU.Over(scaled.TotalTime)
		dynBase := base.EnergyGPU - idleGPU.Over(base.TotalTime)
		if dynBase > 0 {
			row.DynamicSaving = 1 - float64(dynScaled)/float64(dynBase)
		}
		row.ExecDelta = float64(scaled.TotalTime)/float64(base.TotalTime) - 1

		// Panel (c): whole-system comparison with the CPU spin-wait
		// energy replaced by lowest-P-state idle energy on both sides
		// of the comparison's scaled run (the baseline keeps its real
		// measured energy, as in the paper).
		emulated := scaled.EmulatedEnergyCPUThrottled(idleCPU)
		row.SystemSaving = 1 - float64(emulated)/float64(base.Energy)
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{Rows: rows}

	var gs, ds, ed, ss []float64
	for _, r := range res.Rows {
		gs = append(gs, r.GPUSaving)
		ds = append(ds, r.DynamicSaving)
		ed = append(ed, r.ExecDelta)
		ss = append(ss, r.SystemSaving)
	}
	res.Summary = Fig6Summary{
		AvgGPUSaving:     trace.Mean(gs),
		MaxGPUSaving:     trace.Max(gs),
		AvgDynamicSaving: trace.Mean(ds),
		AvgExecDelta:     trace.Mean(ed),
		AvgSystemSaving:  trace.Mean(ss),
	}
	return res, nil
}

func (e *Env) gpuIdlePowerAtLowest() units.Power {
	p := e.GPU.Power
	fcR := float64(e.GPU.CoreLevels[0]) / float64(e.GPU.CoreLevels[len(e.GPU.CoreLevels)-1])
	fmR := float64(e.GPU.MemLevels[0]) / float64(e.GPU.MemLevels[len(e.GPU.MemLevels)-1])
	return p.Board + units.Power(fcR)*p.CoreClockTree + units.Power(fmR)*p.MemClockTree
}

func (e *Env) cpuIdlePowerAtLowest() units.Power {
	m := e.Machine()
	return m.CPU.IdlePowerAt(0)
}

// Table renders all three panels as one row per workload.
func (r *Fig6Result) Table() *trace.Table {
	t := trace.NewTable(
		fmt.Sprintf("Fig. 6 — frequency-scaling savings vs best-performance (avg GPU %.2f%%, max %.2f%%; avg dynamic %.1f%% at +%.2f%% exec; avg CPU+GPU %.2f%%)",
			r.Summary.AvgGPUSaving*100, r.Summary.MaxGPUSaving*100,
			r.Summary.AvgDynamicSaving*100, r.Summary.AvgExecDelta*100,
			r.Summary.AvgSystemSaving*100),
		"workload", "gpu saving %", "dynamic saving %", "exec delta %", "cpu+gpu saving %")
	for _, row := range r.Rows {
		t.AddRow(row.Workload,
			fmt.Sprintf("%.2f", row.GPUSaving*100),
			fmt.Sprintf("%.2f", row.DynamicSaving*100),
			fmt.Sprintf("%.2f", row.ExecDelta*100),
			fmt.Sprintf("%.2f", row.SystemSaving*100))
	}
	return t
}
