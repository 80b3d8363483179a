package workload

import (
	"fmt"
	"sort"

	"greengpu/internal/cpusim"
	"greengpu/internal/gpusim"
)

// Specs returns the characterization table of the nine evaluation workloads
// (paper Table II), with the data-size enlargements already folded into the
// iteration times. Utilization targets encode the published classes:
//
//	bfs            high core, high memory
//	lud            medium core, low memory
//	nbody          core-bounded (high core; memory well below core)
//	PF             low core and memory
//	QG             highly fluctuating utilizations
//	srad_v2        high core, medium memory
//	hotspot        medium core, low memory
//	kmeans         medium core, low memory
//	streamcluster  memory-bounded, highly fluctuating
//
// CPUSlowdown values set the balanced division points the paper measured:
// kmeans converges to 20/80 (slowdown 4) and hotspot to 50/50 (slowdown 1).
func Specs() []Spec {
	return []Spec{
		{
			Name:             "bfs",
			Enlargement:      "65536 iterations",
			Description:      "High core and memory utilization",
			IterationSeconds: 24,
			Iterations:       10,
			CPUSlowdown:      6,
			TransferMB:       160,
			RepartitionMB:    220,
			Phases: []PhaseTarget{
				{Label: "frontier", Fraction: 1, CoreUtil: 0.85, MemUtil: 0.82},
			},
		},
		{
			Name:             "lud",
			Enlargement:      "10 iterations; 8192 by 8192 matrix",
			Description:      "Medium core utilization, low memory utilization",
			IterationSeconds: 30,
			Iterations:       10,
			CPUSlowdown:      5,
			TransferMB:       256,
			RepartitionMB:    512,
			Phases: []PhaseTarget{
				{Label: "decompose", Fraction: 1, CoreUtil: 0.55, MemUtil: 0.25},
			},
		},
		{
			Name:             "nbody",
			Enlargement:      "50 of iterations",
			Description:      "High core utilization (core-bounded)",
			IterationSeconds: 20,
			Iterations:       12,
			CPUSlowdown:      8,
			TransferMB:       48,
			RepartitionMB:    96,
			Phases: []PhaseTarget{
				{Label: "force", Fraction: 1, CoreUtil: 0.92, MemUtil: 0.45},
			},
		},
		{
			Name:             "PF",
			Enlargement:      "2048 by 2048 dimensions",
			Description:      "Low core and memory utilization",
			IterationSeconds: 16,
			Iterations:       12,
			CPUSlowdown:      3,
			TransferMB:       128,
			RepartitionMB:    128,
			Phases: []PhaseTarget{
				{Label: "path", Fraction: 1, CoreUtil: 0.30, MemUtil: 0.25},
			},
		},
		{
			Name:             "QG",
			Enlargement:      "600 iterations; 16777216 points",
			Description:      "Utilizations highly fluctuate",
			IterationSeconds: 24,
			Iterations:       12,
			CPUSlowdown:      6,
			TransferMB:       64,
			RepartitionMB:    64,
			Phases: []PhaseTarget{
				{Label: "generate", Fraction: 0.5, CoreUtil: 0.90, MemUtil: 0.20},
				{Label: "scatter", Fraction: 0.5, CoreUtil: 0.15, MemUtil: 0.68},
			},
		},
		{
			Name:             "srad_v2",
			Enlargement:      "2048 columns by 2048 rows",
			Description:      "High core utilization, medium memory utilization",
			IterationSeconds: 28,
			Iterations:       10,
			CPUSlowdown:      6,
			TransferMB:       192,
			RepartitionMB:    256,
			Phases: []PhaseTarget{
				{Label: "diffuse", Fraction: 1, CoreUtil: 0.80, MemUtil: 0.50},
			},
		},
		{
			Name:             "hotspot",
			Enlargement:      "2048 by 2048 grids of 600 iterations",
			Description:      "Medium core utilization, low memory utilization",
			IterationSeconds: 120,
			Iterations:       20,
			CPUSlowdown:      1,
			TransferMB:       96,
			RepartitionMB:    192,
			Phases: []PhaseTarget{
				{Label: "stencil", Fraction: 1, CoreUtil: 0.55, MemUtil: 0.30},
			},
		},
		{
			Name:             "kmeans",
			Enlargement:      "988040 data points",
			Description:      "Medium core utilization, low memory utilization",
			IterationSeconds: 120,
			Iterations:       20,
			CPUSlowdown:      4,
			TransferMB:       224,
			RepartitionMB:    320,
			Phases: []PhaseTarget{
				{Label: "assign+reduce", Fraction: 1, CoreUtil: 0.60, MemUtil: 0.35},
			},
		},
		{
			Name:             "streamcluster",
			Enlargement:      "65536 points with 512 dimensions",
			Description:      "Utilizations highly fluctuate (memory-bounded)",
			IterationSeconds: 24,
			Iterations:       12,
			CPUSlowdown:      5,
			TransferMB:       128,
			RepartitionMB:    128,
			Phases: []PhaseTarget{
				{Label: "open-centers", Fraction: 0.6, CoreUtil: 0.30, MemUtil: 0.72},
				{Label: "gain", Fraction: 0.4, CoreUtil: 0.62, MemUtil: 0.45},
			},
		},
	}
}

// Rodinia calibrates the full evaluation workload set against the given
// devices and returns the profiles sorted by name.
func Rodinia(gpu gpusim.Config, cpu cpusim.Config) ([]*Profile, error) {
	specs := Specs()
	profiles := make([]*Profile, 0, len(specs))
	for _, s := range specs {
		p, err := Calibrate(s, gpu, cpu)
		if err != nil {
			return nil, err
		}
		profiles = append(profiles, p)
	}
	sort.Slice(profiles, func(i, j int) bool { return profiles[i].Name < profiles[j].Name })
	return profiles, nil
}

// Select resolves a workload selection against profiles: an empty
// selection or ["all"] selects every profile in order; otherwise each name
// must resolve (ByName) and the result follows the selection's order.
func Select(profiles []*Profile, names []string) ([]*Profile, error) {
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		return profiles, nil
	}
	out := make([]*Profile, len(names))
	for i, n := range names {
		p, err := ByName(profiles, n)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// ByName returns the named profile from the calibrated set.
func ByName(profiles []*Profile, name string) (*Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("workload: no profile named %q", name)
}
