// Package fleet evaluates datacenter-scale fleets of heterogeneous
// GPU-CPU nodes in O(distinct configurations) simulations plus O(nodes)
// aggregation, instead of O(nodes) simulations.
//
// Real fleets are highly redundant: thousands of nodes share a handful of
// distinct (device class, workload, DVFS policy, fault intensity)
// configurations. The engine exploits that redundancy end to end:
//
//  1. Stateless per-node generation. Each node's configuration is drawn
//     with parallel.TaskSeed/parallel.Pick from (spec seed, node index)
//     alone, so the fleet is byte-identical at any worker count and nodes
//     never need to be materialized as structs.
//
//  2. Fingerprint dedup. Every node's configuration is canonicalized
//     through the runcache fingerprint (the same SHA-256 keys the
//     per-point studies and the sweep engine use), and nodes are grouped
//     by fingerprint. Each distinct group simulates exactly once, through
//     its class's sweep.Engine — the closed-form fast path where the configuration is
//     expressible, a full core.Run otherwise — sharded across
//     internal/parallel workers and memoized in the shared run cache, so
//     warm fleet re-runs are near-free.
//
//  3. Zero-allocation fan-out. Group results are transposed into
//     structure-of-arrays scalar accumulators and attributed back to nodes
//     in one allocation-free O(nodes) loop, producing streaming fleet
//     aggregates: energy, EDP, deadline-miss counts, and per-class fault
//     totals.
//
// Engine.RunNaive is the deliberately dedup-free per-node loop the
// BENCH_fleet.json throughput contract measures against; its aggregates
// are byte-identical to Engine.Run's (pinned by tests).
package fleet

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"greengpu/internal/bus"
	"greengpu/internal/core"
	"greengpu/internal/cpusim"
	"greengpu/internal/faultinject"
	"greengpu/internal/gpusim"
	"greengpu/internal/parallel"
	"greengpu/internal/sweep"
	"greengpu/internal/testbed"
	"greengpu/internal/units"
	"greengpu/internal/workload"
)

// DefaultSeed seeds fleet generation when a spec does not name one.
const DefaultSeed = 2026

// MaxNodes bounds a fleet spec. Generation and aggregation are O(nodes)
// with small constants, but an unbounded count would let a typo (or a fuzz
// input) allocate gigabytes of per-node attribution before the first
// simulation runs.
const MaxNodes = 1 << 20

// MaxFaultLevel bounds a spec's fault-intensity levels. Level 0 injects
// nothing, level 2 is the moderate all-classes default plan, and rates
// scale linearly in between and beyond (clamped to probability 1), so
// levels past a handful stop meaning anything.
const MaxFaultLevel = 8

// Class is a named device pairing a fleet draws node hardware from.
type Class struct {
	Name string
	GPU  gpusim.Config
	CPU  cpusim.Config
	Bus  bus.Config
}

// classNames lists the registered device classes in registry order —
// kept separate from Classes so Spec.Validate can check names without
// materializing device configurations.
var classNames = []string{"8800gtx", "gtx280"}

// Classes returns the registered device classes: the paper's primary
// testbed (GeForce 8800 GTX + Phenom II X2) and the portability study's
// GTX 280 pairing. Registry order is the spec default.
func Classes() []Class {
	return []Class{
		{Name: "8800gtx", GPU: testbed.GeForce8800GTX(), CPU: testbed.PhenomIIX2(), Bus: testbed.PCIe()},
		{Name: "gtx280", GPU: testbed.GTX280(), CPU: testbed.PhenomIIX2(), Bus: testbed.PCIe()},
	}
}

// ClassByName resolves a registered device class.
func ClassByName(name string) (Class, error) {
	for _, c := range Classes() {
		if c.Name == name {
			return c, nil
		}
	}
	return Class{}, fmt.Errorf("fleet: unknown device class %q (have %s)", name, strings.Join(classNames, ", "))
}

// Spec describes a fleet: how many nodes, and the per-node configuration
// axes each node draws from statelessly (class, workload, mode, fault
// intensity), seeded by Seed.
type Spec struct {
	// Nodes is the fleet size, in [1, MaxNodes].
	Nodes int

	// Seed is the base seed for every per-node draw and every
	// fault-intensity plan.
	Seed uint64

	// Classes selects device classes by name; empty selects every
	// registered class.
	Classes []string

	// Workloads selects calibrated profiles by name; empty or ["all"]
	// selects every Rodinia profile.
	Workloads []string

	// Modes are the framework modes nodes draw from; empty means baseline
	// only.
	Modes []core.Mode

	// FaultLevels are the fault-intensity levels nodes draw from, each in
	// [0, MaxFaultLevel]; empty means fault-free (level 0 only). See
	// PlanForLevel.
	FaultLevels []int

	// Iterations overrides each profile's iteration count when > 0.
	Iterations int

	// DeadlineFactor, when > 0, enables deadline accounting: a node
	// misses its deadline when its wall time exceeds DeadlineFactor times
	// the fault-free baseline-mode wall time of its (class, workload)
	// pair.
	DeadlineFactor float64
}

// Validate reports the first problem with the spec. Its checks are all
// static: workload names are checked against workload.Specs, the
// profiles every class calibrates.
func (s *Spec) Validate() error {
	switch {
	case s.Nodes < 1:
		return fmt.Errorf("fleet: Nodes must be positive")
	case s.Nodes > MaxNodes:
		return fmt.Errorf("fleet: Nodes %d exceeds the %d cap", s.Nodes, MaxNodes)
	case s.Iterations < 0:
		return fmt.Errorf("fleet: Iterations must be non-negative")
	case s.DeadlineFactor < 0 || s.DeadlineFactor != s.DeadlineFactor:
		return fmt.Errorf("fleet: DeadlineFactor must be non-negative")
	}
	for _, name := range s.Classes {
		found := false
		for _, known := range classNames {
			if name == known {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("fleet: unknown device class %q (have %s)", name, strings.Join(classNames, ", "))
		}
	}
	if len(s.Workloads) != 1 || s.Workloads[0] != "all" {
		for _, w := range s.Workloads {
			if !slices.Contains(rodiniaNames, w) {
				return fmt.Errorf("fleet: unknown workload %q (have %s)", w, strings.Join(rodiniaNames, ", "))
			}
		}
	}
	for _, m := range s.Modes {
		if m < core.Baseline || m > core.Holistic {
			return fmt.Errorf("fleet: unknown mode %d", int(m))
		}
	}
	for _, lv := range s.FaultLevels {
		if lv < 0 || lv > MaxFaultLevel {
			return fmt.Errorf("fleet: fault level %d out of range [0,%d]", lv, MaxFaultLevel)
		}
	}
	// Iterations 0 runs each profile's own count, which the registry
	// bounds; only an explicit count can ask for unbounded work.
	if s.Iterations > sweep.MaxRecords/s.maxConfigs() {
		return fmt.Errorf("fleet: spec asks for more than %d iteration records", sweep.MaxRecords)
	}
	return nil
}

// rodiniaNames lists the workloads every class calibrates, in registry
// order: the names a spec may select and the default workload axis.
var rodiniaNames = func() []string {
	var names []string
	for _, w := range workload.Specs() {
		names = append(names, w.Name)
	}
	return names
}()

// maxConfigs bounds the distinct configurations a valid spec simulates:
// at most one per node and one per distinct (class, workload, mode, fault
// level) tuple, plus one deadline reference per (class, workload) pair.
// Each axis holds at most its listed values and at most its registry.
func (s *Spec) maxConfigs() int {
	c := len(classNames)
	if len(s.Classes) > 0 {
		c = min(len(s.Classes), c)
	}
	w := len(rodiniaNames)
	if len(s.Workloads) > 0 && s.Workloads[0] != "all" {
		w = min(len(s.Workloads), w)
	}
	m := min(max(len(s.Modes), 1), int(core.Holistic)+1)
	f := min(max(len(s.FaultLevels), 1), MaxFaultLevel+1)
	n := min(s.Nodes, c*w*m*f)
	if s.DeadlineFactor > 0 {
		n += c * w
	}
	return n
}

// classes resolves the spec's class axis against the registry.
func (s *Spec) classes() []Class {
	if len(s.Classes) == 0 {
		return Classes()
	}
	out := make([]Class, 0, len(s.Classes))
	for _, name := range s.Classes {
		c, err := ClassByName(name)
		if err != nil {
			// Validate checked the names; an error here is a programming
			// bug, not bad input.
			panic(err)
		}
		out = append(out, c)
	}
	return out
}

// modes resolves the spec's mode axis.
func (s *Spec) modes() []core.Mode {
	if len(s.Modes) == 0 {
		return []core.Mode{core.Baseline}
	}
	return s.Modes
}

// levels resolves the spec's fault-intensity axis.
func (s *Spec) levels() []int {
	if len(s.FaultLevels) == 0 {
		return []int{0}
	}
	return s.FaultLevels
}

// faultSeedOffset separates fault-plan seeds from per-node draw seeds in
// the TaskSeed index space.
const faultSeedOffset = 1 << 32

// PlanForLevel builds the fault plan of one intensity level: nil at level
// 0, the moderate all-classes default plan with every rate and sigma
// scaled by level/2 (clamped to probability 1) above it — so level 2 is
// exactly the faultinject.Default plan the resilience study and CI chaos
// job run under. The plan's seed derives from (seed, level) only, never a
// node index, so nodes sharing a level share a fingerprint and dedup into
// one group.
func PlanForLevel(seed uint64, level int) *faultinject.Plan {
	if level <= 0 {
		return nil
	}
	p := faultinject.Default(parallel.TaskSeed(seed, faultSeedOffset+level))
	f := float64(level) / 2
	scale := func(r float64) float64 { return units.Clamp(r*f, 0, 1) }
	p.GPUNoiseSigma = scale(p.GPUNoiseSigma)
	p.GPUDropRate = scale(p.GPUDropRate)
	p.GPUStaleRate = scale(p.GPUStaleRate)
	p.CPUNoiseSigma = scale(p.CPUNoiseSigma)
	p.CPUDropRate = scale(p.CPUDropRate)
	p.CPUStaleRate = scale(p.CPUStaleRate)
	p.TransitionRejectRate = scale(p.TransitionRejectRate)
	p.TransitionDelayRate = scale(p.TransitionDelayRate)
	p.MeterDropRate = scale(p.MeterDropRate)
	p.MeterSpikeRate = scale(p.MeterSpikeRate)
	p.StragglerRate = scale(p.StragglerRate)
	return &p
}

// ParseSpec parses the cmd/experiments -fleet mini-language: whitespace
// separated key=value tokens.
//
//	nodes=10000                      fleet size                (default 1000)
//	seed=2026                        base seed                 (default 2026)
//	classes=8800gtx,gtx280 | all     device classes            (default all)
//	workloads=kmeans,nbody | all     calibrated profiles       (default all)
//	modes=baseline,scaling,holistic  framework modes           (default baseline)
//	faults=0,1,2                     fault-intensity levels    (default 0)
//	iters=4                          iterations per node       (default 4)
//	deadline=1.1                     deadline factor, 0 = off  (default 1.1)
//
// The default iteration count matches the per-point frequency studies, so
// fleet groups share run-cache keys with them and with ad-hoc sweeps.
func ParseSpec(s string) (Spec, error) {
	spec := Spec{Nodes: 1000, Seed: DefaultSeed, Iterations: 4, DeadlineFactor: 1.1}
	err := sweep.ParseTokens("fleet", s, &spec.Workloads, func(k, v string) (bool, error) {
		var err error
		switch k {
		case "nodes":
			spec.Nodes, err = strconv.Atoi(v)
		case "seed":
			spec.Seed, err = strconv.ParseUint(v, 10, 64)
		case "classes":
			if v != "all" {
				spec.Classes = strings.Split(v, ",")
			}
		case "modes":
			for _, name := range strings.Split(v, ",") {
				var m core.Mode
				if m, err = core.ParseMode(name); err != nil {
					break
				}
				spec.Modes = append(spec.Modes, m)
			}
		case "faults":
			for _, part := range strings.Split(v, ",") {
				var lv int
				if lv, err = strconv.Atoi(part); err != nil {
					break
				}
				spec.FaultLevels = append(spec.FaultLevels, lv)
			}
		case "iters":
			spec.Iterations, err = strconv.Atoi(v)
		case "deadline":
			spec.DeadlineFactor, err = strconv.ParseFloat(v, 64)
		default:
			return false, nil
		}
		return true, err
	})
	if err != nil {
		return Spec{}, err
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}
