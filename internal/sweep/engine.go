package sweep

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"greengpu/internal/bus"
	"greengpu/internal/core"
	"greengpu/internal/cpusim"
	"greengpu/internal/faultinject"
	"greengpu/internal/gpusim"
	"greengpu/internal/parallel"
	"greengpu/internal/runcache"
	"greengpu/internal/sim"
	"greengpu/internal/telemetry"
	"greengpu/internal/testbed"
	"greengpu/internal/trace"
	"greengpu/internal/units"
	"greengpu/internal/workload"
)

// Package metrics (see docs/OBSERVABILITY.md). No-ops unless telemetry is
// enabled.
var (
	metricPoints = telemetry.NewCounter(telemetry.MetricSweepPoints,
		"Simulation points evaluated by the batch sweep engine, experiment study points included.")
	metricFastPath = telemetry.NewCounter(telemetry.MetricSweepFastPath,
		"Sweep and study points served by the closed-form batch evaluator.")
	metricFallback = telemetry.NewCounter(telemetry.MetricSweepFallback,
		"Sweep and study points that fell back to a full per-point simulation.")
	metricBatches = telemetry.NewCounter(telemetry.MetricSweepBatches,
		"Sweep batches evaluated (Engine.Run calls).")
)

// Engine evaluates sweep specs against one set of device configurations
// and calibrated workloads. The zero value is not usable; fill every
// exported field (Jobs, Cache and FaultPlan are optional).
//
// An Engine is safe for concurrent use: the configurations and profiles
// are treated as immutable, and each batch builds its own shared tables.
type Engine struct {
	GPU      gpusim.Config
	CPU      cpusim.Config
	Bus      bus.Config
	Profiles []*workload.Profile

	// Jobs bounds how many points evaluate concurrently; 0 selects one
	// worker per CPU, 1 forces sequential execution. Results are
	// byte-identical for every value.
	Jobs int

	// Cache, when non-nil, memoizes cacheable points by content-addressed
	// fingerprint. Sweeps, Batch.Eval callers and the experiment studies
	// (whose Env is an Engine) key points identically, so they share
	// hits, and concurrent requests for one point single-flight onto one
	// computation.
	Cache *runcache.Cache

	// FaultPlan, when non-nil, is the ambient chaos plan: points whose
	// configuration carries no plan of their own inject this one. A
	// per-point plan always wins, so draws and studies that sweep
	// explicit plans are unaffected.
	FaultPlan *faultinject.Plan
}

// PointResult is one evaluated point: its run's totals, by value. Callers
// that need a run's per-iteration records evaluate its configuration
// through Batch.Eval.
type PointResult struct {
	Point
	TotalTime time.Duration
	Energy    units.Energy
	EnergyGPU units.Energy
	EnergyCPU units.Energy
	// Fast reports whether the closed-form batch evaluator produced the
	// result (false: full simulation, possibly via the run cache).
	Fast bool
}

// Plan is a spec validated and expanded against one engine, ready to
// Run (more than once, if need be). Engine.Plan builds it.
type Plan struct {
	// Points are the spec's points, read-only, in the engine's
	// deterministic order — workloads outermost, then the core ladder, then
	// the memory ladder (draws replace the ladder) — which is the order of
	// Run's results at any Jobs value.
	Points []Point

	e     *Engine
	spec  Spec
	profs []*workload.Profile // selected profiles, in selection order
	base  core.Config         // the batch's shared configuration
}

// Plan validates the spec against the engine and expands it. It rejects
// unknown workloads, ladder indices beyond the devices' ladders, and
// specs whose points, at their resolved iteration counts, would produce
// more than MaxRecords iteration records, before it allocates them.
func (e *Engine) Plan(spec Spec) (Plan, error) {
	if err := spec.Validate(); err != nil {
		return Plan{}, err
	}
	profs, err := workload.Select(e.Profiles, spec.Workloads)
	if err != nil {
		return Plan{}, err
	}
	p := Plan{e: e, spec: spec, profs: profs, base: e.baseConfig(&spec)}
	if err := p.base.Validate(); err != nil {
		return Plan{}, err
	}
	if spec.Draws > 0 {
		if err := checkRecords(profs, spec.Draws, spec.Iterations); err != nil {
			return Plan{}, err
		}
		p.Points = make([]Point, 0, len(profs)*spec.Draws)
		for _, pr := range profs {
			for d := 0; d < spec.Draws; d++ {
				p.Points = append(p.Points, Point{Workload: pr.Name, Draw: d, Core: -1, Mem: -1, CPU: -1})
			}
		}
		return p, nil
	}
	cores, mems, cpuLvl, err := e.ladder(&spec)
	if err != nil {
		return Plan{}, err
	}
	if err := checkRecords(profs, len(cores)*len(mems), spec.Iterations); err != nil {
		return Plan{}, err
	}
	p.Points = make([]Point, 0, len(profs)*len(cores)*len(mems))
	for _, pr := range profs {
		for _, c := range cores {
			for _, m := range mems {
				p.Points = append(p.Points, Point{Workload: pr.Name, Draw: -1, Core: c, Mem: m, CPU: cpuLvl})
			}
		}
	}
	return p, nil
}

// checkRecords rejects n points per profile whose iteration records, at
// each profile's resolved iteration count, would exceed MaxRecords.
func checkRecords(profs []*workload.Profile, n, iters int) error {
	total := 0
	for _, p := range profs {
		it := iters
		if it == 0 {
			it = max(p.Iterations, 1)
		}
		if n > (MaxRecords-total)/it {
			return errTooManyRecords
		}
		total += n * it
	}
	return nil
}

// ladder resolves a ladder spec's axes against the engine's devices: the
// core and memory indices to sweep (the full ladder when the spec names
// none) and the CPU P-state (-1 selects the top state).
func (e *Engine) ladder(spec *Spec) (cores, mems []int, cpu int, err error) {
	if cores, err = resolveLadder(spec.CoreLevels, len(e.GPU.CoreLevels), "core"); err != nil {
		return nil, nil, 0, err
	}
	if mems, err = resolveLadder(spec.MemLevels, len(e.GPU.MemLevels), "mem"); err != nil {
		return nil, nil, 0, err
	}
	cpu = spec.CPULevel
	if cpu == -1 {
		cpu = len(e.CPU.PStates) - 1
	}
	if cpu >= len(e.CPU.PStates) {
		return nil, nil, 0, fmt.Errorf("sweep: CPU P-state %d out of range [0,%d)", cpu, len(e.CPU.PStates))
	}
	return cores, mems, cpu, nil
}

// resolveLadder checks explicit indices against the device ladder, or
// materializes the full ladder when none were given.
func resolveLadder(sel []int, n int, domain string) ([]int, error) {
	if sel == nil {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	for _, l := range sel {
		if l >= n {
			return nil, fmt.Errorf("sweep: %s level %d out of range [0,%d)", domain, l, n)
		}
	}
	return sel, nil
}

// baseConfig builds the batch's shared framework configuration — the
// exact shape the per-point studies use (core.DefaultConfig plus
// Iterations), so eligible points share their run-cache keys. The ambient
// chaos plan applies here; per-draw plans override it in config.
func (e *Engine) baseConfig(spec *Spec) core.Config {
	cfg := core.DefaultConfig(spec.Mode)
	cfg.Iterations = spec.Iterations
	e.inheritPlan(&cfg)
	return cfg
}

// inheritPlan installs the engine's ambient chaos plan on a configuration
// that carries no plan of its own.
func (e *Engine) inheritPlan(cfg *core.Config) {
	if cfg.FaultPlan == nil && e.FaultPlan != nil {
		cfg.FaultPlan = e.FaultPlan
	}
}

// config specializes the batch's base configuration for one point.
func (e *Engine) config(spec *Spec, pt Point) core.Config {
	cfg := e.baseConfig(spec)
	var lv core.Levels
	specialize(&cfg, spec, pt, &lv)
	return cfg
}

// specialize pins a ladder point's initial levels, or installs a draw
// point's per-draw fault plan (which wins over the ambient one). lv is
// caller-provided storage for the levels, so the hot path's copy can live
// on its evaluator's stack.
func specialize(cfg *core.Config, spec *Spec, pt Point, lv *core.Levels) {
	if pt.Draw >= 0 {
		plan := faultinject.Default(parallel.TaskSeed(spec.Seed, pt.Draw))
		cfg.FaultPlan = &plan
	} else {
		*lv = core.Levels{Core: pt.Core, Mem: pt.Mem, CPU: pt.CPU}
		cfg.InitialLevels = lv
	}
}

// Batch is one batch's shared precomputation — the validated device level
// tables plus the per-workload phase columns — detached from any particular
// spec so external callers (the fleet engine, the daemon) can evaluate
// ad-hoc configurations through the same evaluation body Engine.Run uses.
// A Batch is immutable after construction and safe for concurrent use.
type Batch struct {
	e   *Engine
	gt  *gpusim.Tables
	ct  *cpusim.Tables
	wts []workloadTables
}

// NewBatch validates the engine's device configurations and precomputes
// the shared tables for every profile the engine knows.
func (e *Engine) NewBatch() (*Batch, error) {
	b, err := e.newBatch(e.Profiles)
	if err != nil {
		return nil, err
	}
	return &b, nil
}

// newBatch is the one builder of a batch's tables: it validates the bus,
// builds both devices' frequency-level tables, and tabulates each profile
// against them. It returns the batch by value so Run and
// PredictSweetSpots keep theirs off the heap.
func (e *Engine) newBatch(profs []*workload.Profile) (Batch, error) {
	if err := e.Bus.Validate(); err != nil {
		return Batch{}, err
	}
	gt, err := gpusim.BuildTables(e.GPU)
	if err != nil {
		return Batch{}, err
	}
	ct, err := cpusim.BuildTables(e.CPU)
	if err != nil {
		return Batch{}, err
	}
	wts := make([]workloadTables, len(profs))
	for i, p := range profs {
		wts[i].build(p, gt, &e.Bus)
	}
	return Batch{e: e, gt: gt, ct: ct, wts: wts}, nil
}

// table returns the named workload's tables, or nil when the batch does
// not hold the workload.
func (b *Batch) table(name string) *workloadTables {
	for i := range b.wts {
		if b.wts[i].prof.Name == name {
			return &b.wts[i]
		}
	}
	return nil
}

// Eval evaluates the named workload under one explicit configuration
// through the batch's evaluation body. A nil cfg.FaultPlan inherits the
// engine's ambient plan, mirroring Engine.Run. The bool reports whether
// the closed-form evaluator produced the result.
func (b *Batch) Eval(name string, cfg core.Config) (*core.Result, bool, error) {
	wt := b.table(name)
	if wt == nil {
		return nil, false, fmt.Errorf("sweep: workload %q not in batch", name)
	}
	b.e.inheritPlan(&cfg)
	if err := cfg.Validate(); err != nil {
		return nil, false, err
	}
	metricPoints.Inc()
	iters, fast := wt.route(&cfg, fastEligible(&cfg))
	r, err := b.result(wt, &cfg, iters, fast)
	return r, fast, err
}

// Key returns the run-cache fingerprint the batch would use for the named
// workload under cfg (after inheriting the engine's ambient fault plan),
// or false when the configuration is not cacheable. External dedup layers
// group by this key so their groups collapse exactly when the cache would
// collapse them.
func (b *Batch) Key(name string, cfg core.Config) (runcache.Key, bool) {
	wt := b.table(name)
	if wt == nil {
		return runcache.Key{}, false
	}
	b.e.inheritPlan(&cfg)
	if !runcache.Cacheable(&cfg) {
		return runcache.Key{}, false
	}
	return runcache.KeyOf(&b.e.GPU, &b.e.CPU, &b.e.Bus, wt.prof, &cfg, ""), true
}

// Run plans and evaluates the spec (Plan, then Plan.Run).
func (e *Engine) Run(ctx context.Context, spec Spec) ([]PointResult, error) {
	p, err := e.Plan(spec)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx)
}

// Run evaluates the plan's points, returning results in Points order.
// When ctx is canceled, points that have not started are skipped, points
// already running complete (so an attached run cache never holds partial
// entries), and the error is ctx.Err(). The daemon routes client
// disconnects through this path.
func (p *Plan) Run(ctx context.Context) ([]PointResult, error) {
	b, err := p.e.newBatch(p.profs)
	if err != nil {
		return nil, err
	}
	eligible := fastEligible(&p.base)
	metricBatches.Inc()
	metricPoints.Add(uint64(len(p.Points)))
	return parallel.Map(ctx, p.Points,
		func(_ int, pt Point) (PointResult, error) {
			return b.evalPoint(&p.spec, &p.base, eligible, pt)
		}, p.e.Jobs)
}

// evalPoint evaluates one point of a spec: the batch-validated base
// configuration specialized to the point, through the evaluation body.
// Per-draw plans (validated by core.Run on the fallback path) are the only
// per-point deviation from the base, and they never take the closed form.
// A closed-form point that no run cache will keep accumulates only its
// totals: nothing reads its per-iteration records. Value receivers keep a
// stack-constructed batch out of the heap when closures capture it.
func (b Batch) evalPoint(spec *Spec, base *core.Config, eligible bool, pt Point) (PointResult, error) {
	cfg := *base
	var lv core.Levels
	specialize(&cfg, spec, pt, &lv)
	wt := b.table(pt.Workload)
	iters, fast := wt.route(&cfg, eligible && pt.Draw < 0)
	if fast && !b.keeps(&cfg) {
		var r core.Result // nil Iterations: the loop stores no records
		if err := b.closedForm(wt, &cfg, iters, &r); err != nil {
			return PointResult{Point: pt, Fast: fast}, err
		}
		return totals(pt, &r, fast), nil
	}
	r, err := b.result(wt, &cfg, iters, fast)
	if err != nil {
		return PointResult{Point: pt, Fast: fast}, err
	}
	return totals(pt, r, fast), nil
}

// totals is the point's result as the engine returns it.
func totals(pt Point, r *core.Result, fast bool) PointResult {
	return PointResult{Point: pt, TotalTime: r.TotalTime, Energy: r.Energy,
		EnergyGPU: r.EnergyGPU, EnergyCPU: r.EnergyCPU, Fast: fast}
}

// route resolves cfg's iteration count and decides the path every point
// takes: the closed form when eligible (fastEligible of cfg, which spec
// callers derive once from their shared base) holds and the workload's
// iteration limit admits the run, and core.Run otherwise. It counts the
// point as fast or fallback. fast depends only on the batch and cfg, so
// it is the same on a cache hit and a miss.
func (wt *workloadTables) route(cfg *core.Config, eligible bool) (iters int, fast bool) {
	iters = wt.iterations(cfg)
	fast = eligible && iters <= wt.maxIters
	if fast {
		metricFastPath.Inc()
	} else {
		metricFallback.Inc()
	}
	return iters, fast
}

// keeps reports whether the engine's run cache will keep cfg's result.
func (b Batch) keeps(cfg *core.Config) bool {
	return b.e.Cache != nil && runcache.Cacheable(cfg)
}

// result computes cfg's full result on the path route chose — the closed
// form or core.Run on a fresh machine — through the run cache when it
// keeps the point. route and result are the evaluation body every point
// goes through; evalPoint bypasses result only for a closed-form point no
// cache keeps.
func (b Batch) result(wt *workloadTables, cfg *core.Config, iters int, fast bool) (*core.Result, error) {
	e := b.e
	compute := func() (*core.Result, error) {
		if fast {
			return b.fastRun(wt, cfg, iters)
		}
		return core.Run(testbed.NewFrom(e.GPU, e.CPU, e.Bus), wt.prof, *cfg)
	}
	if !b.keeps(cfg) {
		return compute()
	}
	key := runcache.KeyOf(&e.GPU, &e.CPU, &e.Bus, wt.prof, cfg, "")
	v, err := e.Cache.Do(key, func() (runcache.Value, error) {
		r, err := compute()
		return runcache.Value{Result: r}, err
	})
	return v.Result, err
}

// fastEligible reports whether the closed-form evaluator expresses the
// configuration: the baseline mode's event sequence with no dynamic
// control, no fault injection, and no observers. Everything else falls
// back to a full simulation.
func fastEligible(cfg *core.Config) bool {
	return cfg.Mode == core.Baseline &&
		(cfg.StaticRatio == nil || *cfg.StaticRatio == 0) &&
		(cfg.FaultPlan == nil || cfg.FaultPlan.Zero()) &&
		cfg.ActuatorFilter == nil &&
		cfg.DivisionPolicy == nil &&
		cfg.OnDVFS == nil &&
		cfg.OnCPUGovernor == nil &&
		cfg.OnIteration == nil
}

// maxPhases is the number of positive-length phases the closed-form loop
// holds in its fixed, stack-allocated phase array. Profiles with more
// phases (none on the testbed) take core.Run.
const maxPhases = 16

// workloadTables is the per-workload shared precomputation of a batch:
// the host→device bus time and, per kernel phase, the per-domain busy
// times tabulated against each ladder (the separable halves of the phase
// timing model). Points that differ in one knob index the other domain's
// unchanged column — the incremental-recompute mechanism.
type workloadTables struct {
	prof    *workload.Profile
	busTime time.Duration // host→device transfer service time
	gamma   float64
	phases  []phaseTables

	// maxIters is the longest run, in iterations, the closed-form loop
	// expresses at every ladder point: the run ends before sim.MaxTime,
	// so the clock never saturates. 0 when the profile has more phases
	// than the loop holds or one iteration can already reach the horizon.
	maxIters int
}

type phaseTables struct {
	stall float64
	tc    []time.Duration // core busy time per core level
	tm    []time.Duration // memory busy time per memory level
}

// build precomputes the profile's batch tables, with exactly the
// arithmetic (and operation order) the live path uses in
// Profile.GPUKernel, Bus.TransferTime and GPU.startSegment, and the
// closed form's iteration limit.
func (wt *workloadTables) build(prof *workload.Profile, gt *gpusim.Tables, b *bus.Config) {
	const gpuUnits = (1 - 0) * workload.UnitsPerIteration // baseline: r = 0
	xfer := prof.TransferBytes(gpuUnits)
	*wt = workloadTables{
		prof:    prof,
		busTime: b.Latency + b.Bandwidth.TransferTime(xfer),
		gamma:   gt.Gamma(),
		phases:  make([]phaseTables, len(prof.Phases)),
	}
	nc, nm := len(gt.CoreDenom), len(gt.MemDenom)
	for i, ph := range prof.Phases {
		u := gpuUnits * ph.Fraction
		ops := ph.OpsPerUnit * u
		bytes := ph.BytesPerUnit * u
		pt := phaseTables{
			stall: ph.StallPerUnit * u,
			tc:    make([]time.Duration, nc),
			tm:    make([]time.Duration, nm),
		}
		for c := 0; c < nc; c++ {
			pt.tc[c] = gt.CoreTime(ops, c)
		}
		for m := 0; m < nm; m++ {
			pt.tm[m] = gt.MemTime(bytes, m)
		}
		wt.phases[i] = pt
	}
	if len(wt.phases) > maxPhases {
		return
	}
	// A phase's time grows with each domain's busy time (γ ∈ [0,1]), so
	// the slowest columns bound every ladder point's iteration span.
	span := wt.busTime
	for i := range wt.phases {
		ph := &wt.phases[i]
		t := gpusim.UnifyPhaseTime(slices.Max(ph.tc), slices.Max(ph.tm), ph.stall, wt.gamma)
		if t <= 0 {
			continue
		}
		if t >= sim.MaxTime-span {
			return // one iteration can already reach the horizon
		}
		span += t
	}
	wt.maxIters = math.MaxInt
	if span > 0 {
		wt.maxIters = int((sim.MaxTime - 1) / span)
	}
}

// iterations resolves cfg's iteration count for this workload exactly as
// core.Run does: the override when positive, else the profile's count,
// and at least one.
func (wt *workloadTables) iterations(cfg *core.Config) int {
	iters := wt.prof.Iterations
	if cfg.Iterations > 0 {
		iters = cfg.Iterations
	}
	return max(iters, 1) // the framework loop always runs one iteration
}

// fastRun is the closed form's full result: the closed-form loop with
// the result's own Iterations as its records.
func (b Batch) fastRun(wt *workloadTables, cfg *core.Config, iters int) (*core.Result, error) {
	res := newFastResult(wt.prof.Name, cfg.Mode, iters)
	if err := b.closedForm(wt, cfg, iters, res); err != nil {
		return nil, err
	}
	return res, nil
}

// closedForm replays the baseline event sequence in closed form, with the
// engine's exact accrual arithmetic (same operands, same order), so the
// totals it stores into res — and the per-iteration records, when
// res.Iterations holds iters of them — are byte-identical to core.Run on a
// fresh machine. With nil res.Iterations it stores only the totals. The
// caller guarantees the run fits the closed form (iters <= wt.maxIters),
// so no event time reaches the clock's saturation range.
//
// Every baseline iteration is identical — same levels, same demands, same
// bus window — so the per-phase durations and energy increments are
// derived once per point and replayed per iteration as pure accumulation.
func (b Batch) closedForm(wt *workloadTables, cfg *core.Config, iters int, res *core.Result) error {
	e, gt := b.e, b.gt
	c := len(e.GPU.CoreLevels) - 1
	m := len(e.GPU.MemLevels) - 1
	cpuLvl := len(e.CPU.PStates) - 1
	if l := cfg.InitialLevels; l != nil {
		if l.Core < 0 || l.Core >= len(e.GPU.CoreLevels) ||
			l.Mem < 0 || l.Mem >= len(e.GPU.MemLevels) ||
			l.CPU < 0 || l.CPU >= len(e.CPU.PStates) {
			return fmt.Errorf("core: InitialLevels %+v out of range", *l)
		}
		c, m, cpuLvl = l.Core, l.Mem, l.CPU
	}
	cpuBusy := 0
	if cfg.SpinWait {
		cpuBusy = 1
	}
	idleP := gt.Power(c, m, 0, 0)
	cpuP := b.ct.PowerAt(cpuLvl, cpuBusy)
	spin := cfg.SpinWait

	// Per-point precompute: phase durations and energies at (c, m),
	// pulled from the batch's shared per-domain columns into a fixed-size
	// array on the evaluator's stack.
	var phases [maxPhases]phaseEval
	nPhases := 0
	span := wt.busTime
	for p := range wt.phases {
		ph := &wt.phases[p]
		tc, tm := ph.tc[c], ph.tm[m]
		t := gpusim.UnifyPhaseTime(tc, tm, ph.stall, wt.gamma)
		if t <= 0 {
			continue // zero-length phase: completes without accrual
		}
		uc := units.Clamp(tc.Seconds()/t.Seconds(), 0, 1)
		um := units.Clamp(tm.Seconds()/t.Seconds(), 0, 1)
		phases[nPhases] = phaseEval{
			dt:     t,
			energy: gt.Power(c, m, uc, um).Over(t),
		}
		nPhases++
		span += t
	}
	iterWall := span
	idleE := idleP.Over(wt.busTime)
	cpuEIter := cpuP.Over(span)

	recs := res.Iterations
	var now time.Duration
	var gpuE, cpuE, spinE units.Energy
	var spinT time.Duration
	for i := 0; i < iters; i++ {
		startGPU, startCPU := gpuE, cpuE
		// Host→device transfer window: the GPU accrues it idle when the
		// kernel starts; then one accrual per positive-length phase.
		if wt.busTime > 0 {
			gpuE += idleE
		}
		for p := 0; p < nPhases; p++ {
			gpuE += phases[p].energy
		}
		// The CPU side has no work (r = 0): it accrues once per
		// iteration over the whole wall time, spinning one core when
		// SpinWait models the synchronous CUDA wait.
		if iterWall > 0 {
			cpuE += cpuEIter
			if spin {
				spinT += iterWall
				spinE += cpuEIter
			}
		}
		now += iterWall
		if recs == nil {
			continue
		}
		st := &recs[i]
		st.Index = i
		st.TG = iterWall
		st.WallTime = iterWall
		st.CoreLevel = c
		st.MemLevel = m
		st.CPULevel = cpuLvl
		st.EnergyGPU = gpuE - startGPU
		st.EnergyCPU = cpuE - startCPU
		st.Energy = st.EnergyGPU + st.EnergyCPU
	}
	res.TotalTime = now
	res.EnergyGPU = gpuE
	res.EnergyCPU = cpuE
	res.Energy = res.EnergyGPU + res.EnergyCPU
	res.SpinTime = spinT
	res.SpinEnergy = spinE
	return nil
}

// phaseEval is one positive-length phase at the point's levels.
type phaseEval struct {
	dt     time.Duration
	energy units.Energy
}

// resultBuf backs a result and its iteration stats with one allocation.
type resultBuf struct {
	res   core.Result
	stats [4]core.IterationStats
}

// newFastResult allocates a result whose Iterations slice shares the
// result's allocation for runs short enough (the common case).
func newFastResult(name string, mode core.Mode, iters int) *core.Result {
	buf := &resultBuf{}
	buf.res.Workload = name
	buf.res.Mode = mode
	if iters <= len(buf.stats) {
		buf.res.Iterations = buf.stats[:iters:iters]
	} else {
		buf.res.Iterations = make([]core.IterationStats, iters)
	}
	return &buf.res
}

// Table renders results as the suite's standard trace table: one row per
// point with its levels, wall time and energy split.
func Table(e *Engine, results []PointResult) *trace.Table {
	t := trace.NewTable("Sweep points",
		"workload", "draw", "core_mhz", "mem_mhz", "cpu_mhz",
		"exec_s", "energy_j", "energy_gpu_j", "energy_cpu_j")
	for _, pr := range results {
		coreMHz, memMHz, cpuMHz := "", "", ""
		if pr.Draw < 0 {
			coreMHz = fmt.Sprintf("%.0f", e.GPU.CoreLevels[pr.Core].MHz())
			memMHz = fmt.Sprintf("%.0f", e.GPU.MemLevels[pr.Mem].MHz())
			cpuMHz = fmt.Sprintf("%.0f", e.CPU.PStates[pr.CPU].Frequency.MHz())
		}
		t.AddRowf(pr.Workload, pr.Draw, coreMHz, memMHz, cpuMHz,
			pr.TotalTime.Seconds(), pr.Energy.Joules(),
			pr.EnergyGPU.Joules(), pr.EnergyCPU.Joules())
	}
	return t
}
