package experiments

import (
	"context"
	"fmt"
	"time"

	"greengpu/internal/dvfs"
	"greengpu/internal/sweep"
	"greengpu/internal/trace"
	"greengpu/internal/units"
)

// SweetSpotRow is one (workload, core, mem) point of the ladder² study,
// annotated with the per-workload markers the table renders.
type SweetSpotRow struct {
	Workload   string
	Core, Mem  int
	CoreMHz    float64
	MemMHz     float64
	ExecTime   time.Duration
	Energy     units.Energy
	EDP        float64 // energy-delay product, J·s
	BestEnergy bool    // lowest total energy of the workload's ladder
	BestEDP    bool    // lowest EDP of the workload's ladder
	ScalerPair bool    // the pair Eq. 3 prefers for the workload's
	// aggregate utilizations — where the WMA scaler would settle.
}

// SweetSpot runs the full ladder² sweet-spot study: every workload across
// the complete (core × mem) GPU frequency ladder at the peak CPU P-state —
// the paper's Fig. 1 sweeps, extended from single-domain slices to the full
// grid. Per workload it marks the minimum-energy and minimum-EDP points,
// and the pair the Eq. 3 loss model prefers for the workload's aggregate
// utilizations (the open-loop prediction of where the tier-2 scaler
// converges). The batch goes through the sweep engine, so the grid shares
// level tables and the environment's run cache.
func (e *Env) SweetSpot() ([]SweetSpotRow, error) {
	// Iterations 4 matches the per-point frequency studies (Fig. 1), so
	// ladder points share their run-cache keys with them.
	results, err := e.Engine.Run(context.Background(), sweep.Spec{Iterations: 4, CPULevel: -1})
	if err != nil {
		return nil, err
	}

	rows := make([]SweetSpotRow, len(results))
	for i, pr := range results {
		rows[i] = SweetSpotRow{
			Workload: pr.Workload,
			Core:     pr.Core,
			Mem:      pr.Mem,
			CoreMHz:  e.GPU.CoreLevels[pr.Core].MHz(),
			MemMHz:   e.GPU.MemLevels[pr.Mem].MHz(),
			ExecTime: pr.TotalTime,
			Energy:   pr.Energy,
			EDP:      pr.Energy.Joules() * pr.TotalTime.Seconds(),
		}
	}

	// Per-workload markers. Plan order groups each workload's ladder
	// contiguously; strict less-than keeps the first (lowest-level) point
	// on ties, deterministically.
	params := dvfs.DefaultParams()
	for start := 0; start < len(rows); {
		end := start + 1
		for end < len(rows) && rows[end].Workload == rows[start].Workload {
			end++
		}
		bestE, bestEDP := start, start
		for i := start + 1; i < end; i++ {
			if rows[i].Energy < rows[bestE].Energy {
				bestE = i
			}
			if rows[i].EDP < rows[bestEDP].EDP {
				bestEDP = i
			}
		}
		rows[bestE].BestEnergy = true
		rows[bestEDP].BestEDP = true

		p, err := e.Profile(rows[start].Workload)
		if err != nil {
			return nil, err
		}
		uc, um := p.AggregateUtilization()
		d := dvfs.PreferredPair(e.GPU.CoreLevels, e.GPU.MemLevels, params, uc, um)
		for i := start; i < end; i++ {
			if rows[i].Core == d.CoreLevel && rows[i].Mem == d.MemLevel {
				rows[i].ScalerPair = true
			}
		}
		start = end
	}
	return rows, nil
}

// SweetSpotTable renders the study as one table, one row per grid point.
// Markers render as "*" so the CSV stays greppable.
func SweetSpotTable(rows []SweetSpotRow) *trace.Table {
	t := trace.NewTable(
		"Sweet spot — full ladder² energy/EDP study (CPU at peak)",
		"workload", "core_mhz", "mem_mhz", "exec_s", "energy_j", "edp_js",
		"best_energy", "best_edp", "scaler_pair")
	mark := func(b bool) string {
		if b {
			return "*"
		}
		return ""
	}
	for _, r := range rows {
		t.AddRow(r.Workload,
			fmt.Sprintf("%.0f", r.CoreMHz),
			fmt.Sprintf("%.0f", r.MemMHz),
			fmt.Sprintf("%.6f", r.ExecTime.Seconds()),
			fmt.Sprintf("%.6f", r.Energy.Joules()),
			fmt.Sprintf("%.6f", r.EDP),
			mark(r.BestEnergy), mark(r.BestEDP), mark(r.ScalerPair))
	}
	return t
}
