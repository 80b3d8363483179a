package fleet

import (
	"context"
	"fmt"
	"math"
	"time"

	"greengpu/internal/core"
	"greengpu/internal/faultinject"
	"greengpu/internal/parallel"
	"greengpu/internal/runcache"
	"greengpu/internal/sweep"
	"greengpu/internal/telemetry"
	"greengpu/internal/testbed"
	"greengpu/internal/trace"
	"greengpu/internal/units"
	"greengpu/internal/workload"
)

// Package metrics: the node→group→fleet attribution hierarchy (see
// docs/OBSERVABILITY.md). No-ops unless telemetry is enabled.
var (
	metricRuns = telemetry.NewCounter(telemetry.MetricFleetRuns,
		"Fleet evaluations (fleet.Engine.Run calls).")
	metricNodes = telemetry.NewCounter(telemetry.MetricFleetNodes,
		"Fleet nodes attributed simulation results.")
	metricGroups = telemetry.NewCounter(telemetry.MetricFleetGroups,
		"Distinct fleet configuration groups actually simulated.")
	metricDedupSaved = telemetry.NewCounter(telemetry.MetricFleetDedupSaved,
		"Simulations avoided by fleet fingerprint dedup (nodes minus node-backed groups).")
)

// Engine evaluates fleet specs. The zero value runs sequentially without
// memoization; fill the fields to share the suite's worker pool, run cache
// and chaos plan.
type Engine struct {
	// Jobs bounds how many groups simulate concurrently; 0 selects one
	// worker per CPU, 1 forces sequential execution. Results are
	// byte-identical for every value.
	Jobs int

	// Cache, when non-nil, memoizes group simulations under exactly the
	// runcache keys the per-point studies and sweeps use, so fleets share
	// hits with everything else and warm re-runs are near-free.
	Cache *runcache.Cache

	// FaultPlan, when non-nil, is the ambient chaos plan: nodes at fault
	// level 0 (no plan of their own) inject this one. It becomes the
	// ambient plan of each class's sweep.Engine.
	FaultPlan *faultinject.Plan
}

// Group is one distinct node configuration: every node whose canonical
// fingerprint matches collapses into it, and it simulates exactly once.
type Group struct {
	// Class, Workload, Mode and FaultLevel identify the configuration on
	// the spec's axes.
	Class      string
	Workload   string
	Mode       core.Mode
	FaultLevel int

	// Key is the runcache fingerprint the group's nodes collapsed under.
	Key runcache.Key

	// Count is how many nodes the group absorbed; 0 marks a
	// deadline-reference group no node drew directly.
	Count int

	// Fast reports whether the sweep engine's closed-form evaluator
	// produced the result.
	Fast bool

	// Deadline is the group's deadline (DeadlineFactor times the
	// fault-free baseline wall time of its class/workload pair); 0 when
	// deadline accounting is off. Miss reports whether the group's wall
	// time exceeds it.
	Deadline time.Duration
	Miss     bool

	// Result is the group's simulation result, shared by every node in
	// the group.
	Result *core.Result
}

// Aggregates are the fleet-wide totals, accumulated over nodes in node
// order (so they are byte-identical to a naive per-node loop).
type Aggregates struct {
	// Nodes is the fleet size.
	Nodes int
	// Energy, EnergyGPU and EnergyCPU total the per-node energies.
	Energy    units.Energy
	EnergyGPU units.Energy
	EnergyCPU units.Energy
	// Wall totals the per-node wall times.
	Wall time.Duration
	// EDP totals the per-node energy-delay products, in joule-seconds.
	EDP float64
	// DeadlineMisses counts nodes whose wall time exceeded their deadline
	// (always 0 when deadline accounting is off).
	DeadlineMisses uint64
	// Faults totals the injected faults across the fleet by class.
	Faults faultinject.Counts
}

// Result is one fleet evaluation: the distinct groups (node-backed groups
// in first-appearance order, then deadline-reference groups), the per-node
// attribution, and the fleet aggregates.
type Result struct {
	Spec      Spec
	Groups    []Group
	NodeGroup []int32
	Agg       Aggregates
}

// Node returns the group node i collapsed into.
func (r *Result) Node(i int) *Group { return &r.Groups[r.NodeGroup[i]] }

// DedupRatio is the compression the fingerprint dedup achieved: nodes per
// simulation actually run (including deadline-reference simulations).
func (r *Result) DedupRatio() float64 {
	if len(r.Groups) == 0 {
		return 0
	}
	return float64(len(r.NodeGroup)) / float64(len(r.Groups))
}

// classRT is one resolved device class and the sweep engine that
// evaluates its groups, built on the class's devices and its calibrated
// profiles (Profiles is indexed by the spec's workload axis).
type classRT struct {
	class Class
	eng   *sweep.Engine
}

// resolve builds the per-class runtimes and the resolved workload-name
// axis. Every class shares one workload axis: the Rodinia calibration
// produces the same nine names, in the same order, for any device pair.
func (e *Engine) resolve(spec *Spec) ([]classRT, []string, error) {
	cls := spec.classes()
	rts := make([]classRT, len(cls))
	for i, cl := range cls {
		profiles, err := workload.Rodinia(cl.GPU, cl.CPU)
		if err != nil {
			return nil, nil, err
		}
		profs, err := workload.Select(profiles, spec.Workloads)
		if err != nil {
			return nil, nil, err
		}
		eng, err := sweep.New(cl.GPU, cl.CPU, cl.Bus, profs)
		if err != nil {
			return nil, nil, err
		}
		eng.Cache, eng.FaultPlan = e.Cache, e.FaultPlan
		rts[i] = classRT{class: cl, eng: eng}
	}
	names := make([]string, len(rts[0].eng.Profiles))
	for j, p := range rts[0].eng.Profiles {
		names[j] = p.Name
	}
	return rts, names, nil
}

// nodeConfig builds the framework configuration of one (mode, fault plan)
// pair: the per-point studies' default config shape, so groups share
// run-cache keys with them. A nil plan inherits the engine's ambient chaos
// plan.
func (e *Engine) nodeConfig(spec *Spec, mode core.Mode, plan *faultinject.Plan) core.Config {
	cfg := core.DefaultConfig(mode)
	cfg.Iterations = spec.Iterations
	cfg.FaultPlan = plan
	if cfg.FaultPlan == nil && e.FaultPlan != nil {
		cfg.FaultPlan = e.FaultPlan
	}
	return cfg
}

// groupMeta is the evaluation-side state of a group: its exact
// configuration and its axis indices.
type groupMeta struct {
	cfg      core.Config
	class    int
	workload int
}

// Run generates the fleet, dedups it into distinct groups by runcache
// fingerprint, simulates each group exactly once (sharded across
// internal/parallel workers, memoized in the shared run cache), and fans
// the results back out into per-node attribution and fleet aggregates.
// Output is byte-identical at any Jobs value and to RunNaive.
//
// When ctx is canceled, groups that have not started simulating are
// skipped, groups already running complete (so an attached run cache
// never holds partial entries), and the error is ctx.Err(). The daemon
// routes client disconnects through this path.
func (e *Engine) Run(ctx context.Context, spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rts, wls, err := e.resolve(&spec)
	if err != nil {
		return nil, err
	}
	modes, levels := spec.modes(), spec.levels()
	plans := make([]*faultinject.Plan, len(levels))
	for i, lv := range levels {
		plans[i] = PlanForLevel(spec.Seed, lv)
	}

	// group finds or adds the group of one configuration: tuples whose
	// canonical configurations coincide share a fingerprint and merge into
	// one group. A configuration that is not cacheable (impossible for
	// plain spec axes, kept for robustness) is its own group.
	byKey := make(map[runcache.Key]int32)
	var groups []Group
	var metas []groupMeta
	group := func(ci, wi int, mode core.Mode, level int, cfg core.Config) (int32, error) {
		g := int32(len(groups))
		key, ok, err := rts[ci].eng.Key(wls[wi], cfg)
		if err != nil {
			return 0, err
		}
		if ok {
			if prev, seen := byKey[key]; seen {
				return prev, nil
			}
			byKey[key] = g
		}
		groups = append(groups, Group{Class: rts[ci].class.Name, Workload: wls[wi],
			Mode: mode, FaultLevel: level, Key: key})
		metas = append(metas, groupMeta{cfg: cfg, class: ci, workload: wi})
		return g, nil
	}

	// Node generation and grouping. The loop is sequential and stateless
	// per node, so group discovery order — and therefore all output — is
	// a pure function of the spec. The fingerprint is computed once per
	// distinct (class, workload, mode, level) tuple, not per node.
	C, W, M, F := len(rts), len(wls), len(modes), len(levels)
	tupleGroup := make([]int32, C*W*M*F)
	for i := range tupleGroup {
		tupleGroup[i] = -1
	}
	nodeGroup := make([]int32, spec.Nodes)
	for i := 0; i < spec.Nodes; i++ {
		s := parallel.TaskSeed(spec.Seed, i)
		ci := parallel.Pick(s, 0, C)
		wi := parallel.Pick(s, 1, W)
		mi := parallel.Pick(s, 2, M)
		fi := parallel.Pick(s, 3, F)
		t := ((ci*W+wi)*M+mi)*F + fi
		g := tupleGroup[t]
		if g < 0 {
			if g, err = group(ci, wi, modes[mi], levels[fi], e.nodeConfig(&spec, modes[mi], plans[fi])); err != nil {
				return nil, err
			}
			tupleGroup[t] = g
		}
		groups[g].Count++
		nodeGroup[i] = g
	}
	nodeGroups := len(groups)

	// Deadline references: the fault-free baseline run of each (class,
	// workload) pair present in the fleet. References dedup through the
	// same fingerprint map, so they only add simulations when no node drew
	// the fault-free baseline configuration itself.
	refIdx := make([]int32, C*W)
	for i := range refIdx {
		refIdx[i] = -1
	}
	if spec.DeadlineFactor > 0 {
		for g := 0; g < nodeGroups; g++ {
			ci, wi := metas[g].class, metas[g].workload
			if refIdx[ci*W+wi] < 0 {
				if refIdx[ci*W+wi], err = group(ci, wi, core.Baseline, 0, e.nodeConfig(&spec, core.Baseline, nil)); err != nil {
					return nil, err
				}
			}
		}
	}

	// Simulate each distinct group exactly once, sharded across workers.
	// parallel.Map preserves order, so the group list stays deterministic.
	type evalOut struct {
		res  *core.Result
		fast bool
	}
	idx := make([]int, len(groups))
	for i := range idx {
		idx[i] = i
	}
	outs, err := parallel.Map(ctx, idx,
		func(_ int, g int) (evalOut, error) {
			r, fast, err := rts[metas[g].class].eng.Eval(wls[metas[g].workload], metas[g].cfg)
			return evalOut{res: r, fast: fast}, err
		}, e.Jobs)
	if err != nil {
		return nil, err
	}
	for g := range groups {
		groups[g].Result = outs[g].res
		groups[g].Fast = outs[g].fast
	}
	if spec.DeadlineFactor > 0 {
		for g := range groups {
			ref := groups[refIdx[metas[g].class*W+metas[g].workload]].Result.TotalTime
			d := deadline(spec.DeadlineFactor, ref)
			groups[g].Deadline = d
			groups[g].Miss = groups[g].Result.TotalTime > d
		}
	}

	// Fan-out: transpose the group results into structure-of-arrays
	// scalar columns and attribute them to nodes in one allocation-free
	// O(nodes) pass.
	sc := newGroupScalars(groups)
	res := &Result{Spec: spec, Groups: groups, NodeGroup: nodeGroup}
	aggregate(nodeGroup, sc, &res.Agg)

	metricRuns.Inc()
	metricNodes.Add(uint64(spec.Nodes))
	metricGroups.Add(uint64(len(groups)))
	metricDedupSaved.Add(uint64(spec.Nodes - nodeGroups))
	return res, nil
}

// groupScalars are the structure-of-arrays accumulator columns of one
// fleet: every scalar the aggregation loop reads, one slot per group, so
// the per-node pass touches flat arrays only.
type groupScalars struct {
	energy    []units.Energy
	energyGPU []units.Energy
	energyCPU []units.Energy
	wall      []time.Duration
	edp       []float64
	miss      []bool
	faults    []faultinject.Counts
}

// newGroupScalars transposes group results into scalar columns.
func newGroupScalars(groups []Group) *groupScalars {
	n := len(groups)
	sc := &groupScalars{
		energy:    make([]units.Energy, n),
		energyGPU: make([]units.Energy, n),
		energyCPU: make([]units.Energy, n),
		wall:      make([]time.Duration, n),
		edp:       make([]float64, n),
		miss:      make([]bool, n),
		faults:    make([]faultinject.Counts, n),
	}
	for g := range groups {
		r := groups[g].Result
		sc.energy[g] = r.Energy
		sc.energyGPU[g] = r.EnergyGPU
		sc.energyCPU[g] = r.EnergyCPU
		sc.wall[g] = r.TotalTime
		sc.edp[g] = r.Energy.Joules() * r.TotalTime.Seconds()
		sc.miss[g] = groups[g].Miss
		sc.faults[g] = r.Faults
	}
	return sc
}

// aggregate attributes group scalars back to nodes, accumulating the fleet
// totals in node order. The loop allocates nothing (pinned by an
// AllocsPerRun test) and reads only the flat scalar columns.
func aggregate(nodeGroup []int32, sc *groupScalars, agg *Aggregates) {
	for _, g := range nodeGroup {
		agg.Energy += sc.energy[g]
		agg.EnergyGPU += sc.energyGPU[g]
		agg.EnergyCPU += sc.energyCPU[g]
		agg.Wall += sc.wall[g]
		agg.EDP += sc.edp[g]
		if sc.miss[g] {
			agg.DeadlineMisses++
		}
		agg.Faults = agg.Faults.Add(sc.faults[g])
	}
	agg.Nodes = len(nodeGroup)
}

// RunNaive evaluates the fleet the obvious way — one full simulation per
// node, no dedup, no cache — and returns the aggregates. It is the
// baseline the BENCH_fleet.json nodes/s contract measures Run against;
// its aggregates are byte-identical to Run's because both accumulate the
// same per-node scalars in the same node order.
func (e *Engine) RunNaive(spec Spec) (Aggregates, error) {
	if err := spec.Validate(); err != nil {
		return Aggregates{}, err
	}
	rts, wls, err := e.resolve(&spec)
	if err != nil {
		return Aggregates{}, err
	}
	modes, levels := spec.modes(), spec.levels()
	plans := make([]*faultinject.Plan, len(levels))
	for i, lv := range levels {
		plans[i] = PlanForLevel(spec.Seed, lv)
	}

	C, W, M, F := len(rts), len(wls), len(modes), len(levels)
	refWall := make([]time.Duration, C*W)
	refDone := make([]bool, C*W)
	var agg Aggregates
	for i := 0; i < spec.Nodes; i++ {
		s := parallel.TaskSeed(spec.Seed, i)
		ci := parallel.Pick(s, 0, C)
		wi := parallel.Pick(s, 1, W)
		mi := parallel.Pick(s, 2, M)
		fi := parallel.Pick(s, 3, F)
		cl := rts[ci].class
		cfg := e.nodeConfig(&spec, modes[mi], plans[fi])
		r, err := core.Run(testbed.NewFrom(cl.GPU, cl.CPU, cl.Bus), rts[ci].eng.Profiles[wi], cfg)
		if err != nil {
			return Aggregates{}, err
		}
		agg.Energy += r.Energy
		agg.EnergyGPU += r.EnergyGPU
		agg.EnergyCPU += r.EnergyCPU
		agg.Wall += r.TotalTime
		agg.EDP += r.Energy.Joules() * r.TotalTime.Seconds()
		if spec.DeadlineFactor > 0 {
			idx := ci*W + wi
			if !refDone[idx] {
				refCfg := e.nodeConfig(&spec, core.Baseline, nil)
				ref, err := core.Run(testbed.NewFrom(cl.GPU, cl.CPU, cl.Bus), rts[ci].eng.Profiles[wi], refCfg)
				if err != nil {
					return Aggregates{}, err
				}
				refWall[idx] = ref.TotalTime
				refDone[idx] = true
			}
			if r.TotalTime > deadline(spec.DeadlineFactor, refWall[idx]) {
				agg.DeadlineMisses++
			}
		}
		agg.Faults = agg.Faults.Add(r.Faults)
	}
	agg.Nodes = spec.Nodes
	return agg, nil
}

// deadline is factor times the reference wall time ref. A product at or
// past the int64 nanosecond range (a huge or infinite factor) saturates at
// the largest time.Duration rather than wrapping negative, so no node can
// miss it.
func deadline(factor float64, ref time.Duration) time.Duration {
	if d := factor * float64(ref); d < math.MaxInt64 {
		return time.Duration(d)
	}
	return math.MaxInt64
}

// GroupsTable renders a fleet's distinct groups as the suite's standard
// trace table, one row per group with its node count and result scalars.
func GroupsTable(r *Result) *trace.Table {
	t := trace.NewTable("Fleet groups",
		"class", "workload", "mode", "fault_level", "nodes", "fast",
		"exec_s", "energy_j", "energy_gpu_j", "energy_cpu_j",
		"deadline_s", "miss")
	for i := range r.Groups {
		g := &r.Groups[i]
		t.AddRow(g.Class, g.Workload, g.Mode.String(),
			fmt.Sprintf("%d", g.FaultLevel), fmt.Sprintf("%d", g.Count),
			fmt.Sprintf("%t", g.Fast),
			fmt.Sprintf("%.6f", g.Result.TotalTime.Seconds()),
			fmt.Sprintf("%.6f", g.Result.Energy.Joules()),
			fmt.Sprintf("%.6f", g.Result.EnergyGPU.Joules()),
			fmt.Sprintf("%.6f", g.Result.EnergyCPU.Joules()),
			fmt.Sprintf("%.6f", g.Deadline.Seconds()),
			fmt.Sprintf("%t", g.Miss))
	}
	return t
}

// SummaryTable renders a fleet's aggregates as a one-row table.
func SummaryTable(r *Result) *trace.Table {
	t := trace.NewTable("Fleet summary",
		"nodes", "groups", "dedup_ratio", "energy_j", "energy_gpu_j",
		"energy_cpu_j", "wall_s", "edp_js", "deadline_misses", "faults_total")
	a := &r.Agg
	t.AddRow(fmt.Sprintf("%d", a.Nodes), fmt.Sprintf("%d", len(r.Groups)),
		fmt.Sprintf("%.2f", r.DedupRatio()),
		fmt.Sprintf("%.6f", a.Energy.Joules()),
		fmt.Sprintf("%.6f", a.EnergyGPU.Joules()),
		fmt.Sprintf("%.6f", a.EnergyCPU.Joules()),
		fmt.Sprintf("%.6f", a.Wall.Seconds()),
		fmt.Sprintf("%.6f", a.EDP),
		fmt.Sprintf("%d", a.DeadlineMisses),
		fmt.Sprintf("%d", a.Faults.Total()))
	return t
}
