package experiments

import (
	"context"
	"fmt"
	"time"

	"greengpu/internal/core"
	"greengpu/internal/fleet"
	"greengpu/internal/trace"
	"greengpu/internal/units"
)

// FleetStudySizes are the fleet sizes of the canonical fleet study:
// rack-, pod- and datacenter-scale.
var FleetStudySizes = []int{1000, 10000, 100000}

// FleetStudyLevels are the fault-intensity levels of the canonical fleet
// study: fault-free, half the moderate default plan, and the default plan
// itself (the chaos-mode intensity).
var FleetStudyLevels = []int{0, 1, 2}

// FleetRow is one (fleet size, fault intensity) cell of the fleet study.
type FleetRow struct {
	Nodes      int
	FaultLevel int
	Groups     int
	DedupRatio float64
	Energy     units.Energy
	EDP        float64
	Wall       time.Duration
	Misses     uint64
	MissRate   float64
	Faults     uint64
}

// FleetStudy evaluates the canonical fleet grid — FleetStudySizes ×
// FleetStudyLevels, both device classes, every workload, the baseline /
// frequency-scaling / holistic modes, deadlines at 1.1× — through the
// dedup-compressed fleet engine. Node counts grow 100×, but each cell
// simulates only its distinct configuration groups, so the study stays
// routine where a naive per-node loop would take hours; the engine shares
// the environment's worker pool, run cache and chaos plan.
func (e *Env) FleetStudy() ([]FleetRow, error) {
	eng := &fleet.Engine{Jobs: e.Jobs, Cache: e.Cache, FaultPlan: e.FaultPlan}
	rows := make([]FleetRow, 0, len(FleetStudySizes)*len(FleetStudyLevels))
	for _, nodes := range FleetStudySizes {
		for _, level := range FleetStudyLevels {
			res, err := eng.Run(context.Background(), fleet.Spec{
				Nodes:          nodes,
				Seed:           fleet.DefaultSeed,
				Modes:          []core.Mode{core.Baseline, core.FreqScaling, core.Holistic},
				FaultLevels:    []int{level},
				Iterations:     4,
				DeadlineFactor: 1.1,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, FleetRow{
				Nodes:      nodes,
				FaultLevel: level,
				Groups:     len(res.Groups),
				DedupRatio: res.DedupRatio(),
				Energy:     res.Agg.Energy,
				EDP:        res.Agg.EDP,
				Wall:       res.Agg.Wall,
				Misses:     res.Agg.DeadlineMisses,
				MissRate:   float64(res.Agg.DeadlineMisses) / float64(nodes),
				Faults:     res.Agg.Faults.Total(),
			})
		}
	}
	return rows, nil
}

// FleetStudyTable renders the fleet study as the suite's standard table:
// one row per (fleet size, fault intensity) cell with its dedup economics
// and energy/deadline aggregates.
func FleetStudyTable(rows []FleetRow) *trace.Table {
	t := trace.NewTable(
		"Fleet study — energy/deadline aggregates across fleet sizes and fault intensities",
		"nodes", "fault_level", "groups", "dedup_ratio", "energy_j",
		"edp_js", "wall_s", "deadline_misses", "miss_rate", "faults_total")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%d", r.FaultLevel),
			fmt.Sprintf("%d", r.Groups),
			fmt.Sprintf("%.2f", r.DedupRatio),
			fmt.Sprintf("%.6f", r.Energy.Joules()),
			fmt.Sprintf("%.6f", r.EDP),
			fmt.Sprintf("%.6f", r.Wall.Seconds()),
			fmt.Sprintf("%d", r.Misses),
			fmt.Sprintf("%.6f", r.MissRate),
			fmt.Sprintf("%d", r.Faults))
	}
	return t
}
