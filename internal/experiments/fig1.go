package experiments

import (
	"fmt"
	"time"

	"greengpu/internal/core"
	"greengpu/internal/trace"
	"greengpu/internal/units"
)

// Fig1Domain selects which clock domain a sweep varies.
type Fig1Domain string

// Sweep domains.
const (
	DomainMemory Fig1Domain = "memory" // Fig. 1a/1b: memory sweep, core at peak
	DomainCore   Fig1Domain = "core"   // Fig. 1c/1d: core sweep, memory at peak
)

// Fig1Point is one bar of Fig. 1: a workload run at one fixed frequency
// level, normalized to the peak-frequency run of the same workload.
type Fig1Point struct {
	Workload string
	Domain   Fig1Domain
	Level    int
	MHz      float64
	// NormTime is exec time / exec time at peak (Fig. 1's "normalized
	// execution time"); RelEnergy is GPU energy / GPU energy at peak
	// ("relative energy").
	NormTime  float64
	RelEnergy float64
	ExecTime  time.Duration
	Energy    units.Energy
}

// Fig1Result holds both workloads' sweeps over both domains.
type Fig1Result struct {
	Points []Fig1Point
}

// fig1Workloads are the case-study workloads of §III-A: core-bounded nbody
// and memory-bounded streamcluster.
var fig1Workloads = []string{"nbody", "streamcluster"}

// fig1Task is one grid point of the Fig. 1 sweep: (workload, domain,
// level), with the clock operating point resolved up front so the task
// body is a pure fresh-machine run.
type fig1Task struct {
	workload string
	domain   Fig1Domain
	level    int
	mhz      float64
	levels   core.Levels
}

// Fig1 reproduces the §III-A case study: run each workload GPU-only at
// every frequency level of one domain (the other pinned at peak) and report
// execution time and GPU energy normalized to the peak-frequency run.
// All grid points are independent fixed-frequency runs, so they execute on
// the environment's worker pool.
func (e *Env) Fig1() (*Fig1Result, error) {
	nCore := len(e.GPU.CoreLevels)
	nMem := len(e.GPU.MemLevels)

	// Enumerate the grid in the figure's panel order (workload outer,
	// domain middle, level inner); results come back in the same order.
	var tasks []fig1Task
	for _, name := range fig1Workloads {
		for _, domain := range []Fig1Domain{DomainMemory, DomainCore} {
			n := nMem
			if domain == DomainCore {
				n = nCore
			}
			for lvl := 0; lvl < n; lvl++ {
				tk := fig1Task{
					workload: name,
					domain:   domain,
					level:    lvl,
					levels: core.Levels{
						Core: nCore - 1,
						Mem:  nMem - 1,
						CPU:  len(e.CPU.PStates) - 1,
					},
				}
				if domain == DomainMemory {
					tk.levels.Mem = lvl
					tk.mhz = e.GPU.MemLevels[lvl].MHz()
				} else {
					tk.levels.Core = lvl
					tk.mhz = e.GPU.CoreLevels[lvl].MHz()
				}
				tasks = append(tasks, tk)
			}
		}
	}

	points, err := mapPoints(e, tasks, func(_ int, tk fig1Task) (Fig1Point, error) {
		levels := tk.levels
		cfg := core.DefaultConfig(core.Baseline)
		cfg.InitialLevels = &levels
		cfg.Iterations = 4
		r, err := e.run(tk.workload, cfg)
		if err != nil {
			return Fig1Point{}, err
		}
		return Fig1Point{
			Workload: tk.workload,
			Domain:   tk.domain,
			Level:    tk.level,
			MHz:      tk.mhz,
			ExecTime: r.TotalTime,
			Energy:   r.EnergyGPU,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	// Normalize each contiguous (workload, domain) sweep to its peak
	// (highest-level, i.e. last) point.
	res := &Fig1Result{Points: points}
	for start := 0; start < len(points); {
		end := start + 1
		for end < len(points) &&
			points[end].Workload == points[start].Workload &&
			points[end].Domain == points[start].Domain {
			end++
		}
		peak := points[end-1]
		for i := start; i < end; i++ {
			res.Points[i].NormTime = float64(points[i].ExecTime) / float64(peak.ExecTime)
			res.Points[i].RelEnergy = float64(points[i].Energy) / float64(peak.Energy)
		}
		start = end
	}
	return res, nil
}

// Table renders the sweep in the layout of Fig. 1's four panels.
func (r *Fig1Result) Table() *trace.Table {
	t := trace.NewTable(
		"Fig. 1 — normalized execution time and relative GPU energy vs frequency",
		"workload", "swept domain", "MHz", "norm time", "rel energy")
	for _, p := range r.Points {
		t.AddRow(p.Workload, string(p.Domain),
			fmt.Sprintf("%.0f", p.MHz),
			fmt.Sprintf("%.4f", p.NormTime),
			fmt.Sprintf("%.4f", p.RelEnergy))
	}
	return t
}

// Select returns the points of one panel (one workload, one domain),
// ordered by ascending frequency.
func (r *Fig1Result) Select(workload string, domain Fig1Domain) []Fig1Point {
	var out []Fig1Point
	for _, p := range r.Points {
		if p.Workload == workload && p.Domain == domain {
			out = append(out, p)
		}
	}
	return out
}
