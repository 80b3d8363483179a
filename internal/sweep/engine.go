package sweep

import (
	"context"
	"fmt"
	"time"

	"greengpu/internal/bus"
	"greengpu/internal/core"
	"greengpu/internal/cpusim"
	"greengpu/internal/faultinject"
	"greengpu/internal/gpusim"
	"greengpu/internal/parallel"
	"greengpu/internal/runcache"
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
// and calibrated workloads. New builds it: the devices' level tables and
// each workload's baseline closed form are tabulated there, once, and
// every Plan, Run, Eval, Key and PredictSweetSpots reads them. An engine
// that New did not build (a struct literal) holds no closed forms, so
// those methods return an error for every workload.
//
// An Engine is safe for concurrent use. GPU, CPU, Bus and Profiles are
// read-only after New: an engine on other devices or workloads is another
// New. Jobs, Cache and FaultPlan may be set on the engine or on a by-value
// copy, which shares the closed forms and runs under its own settings.
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
	// fingerprint. Sweeps, Eval callers and the experiment studies (whose
	// Env is an Engine) key points identically, so they share hits, and
	// concurrent requests for one point single-flight onto one
	// computation.
	Cache *runcache.Cache

	// FaultPlan, when non-nil, is the ambient chaos plan: points whose
	// configuration carries no plan of their own inject this one. A
	// per-point plan always wins, so draws and studies that sweep
	// explicit plans are unaffected.
	FaultPlan *faultinject.Plan

	// forms holds each profile's baseline closed form over the level
	// tables, in Profiles order. New builds it; nothing changes it after.
	forms []core.ClosedForm
}

// New validates the bus, builds both devices' frequency-level tables and
// tabulates every profile's closed form against them: the one build of a
// device set's shared precomputation.
func New(gpu gpusim.Config, cpu cpusim.Config, b bus.Config, profiles []*workload.Profile) (*Engine, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	gt, err := gpusim.BuildTables(gpu)
	if err != nil {
		return nil, err
	}
	ct, err := cpusim.BuildTables(cpu)
	if err != nil {
		return nil, err
	}
	e := &Engine{GPU: gpu, CPU: cpu, Bus: b, Profiles: profiles,
		forms: make([]core.ClosedForm, len(profiles))}
	for i, p := range profiles {
		e.forms[i] = core.NewClosedForm(p, gt, ct, &e.Bus)
	}
	return e, nil
}

// form returns the named workload's closed form, or nil when New did not
// tabulate the workload: an unknown name, an engine New did not build, or
// a profile added to Profiles after New.
func (e *Engine) form(name string) *core.ClosedForm {
	for i := range e.forms {
		if e.forms[i].Profile.Name == name {
			return &e.forms[i]
		}
	}
	return nil
}

// errNoForm is the error for a workload the engine holds no closed form
// of.
func errNoForm(name string) error {
	return fmt.Errorf("sweep: workload %q has no closed form in this engine (engines are built by sweep.New)", name)
}

// PointResult is one evaluated point: its run's totals, by value. Callers
// that need a run's per-iteration records evaluate its configuration
// through Engine.Eval.
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
	base  core.Config         // the points' shared configuration
}

// Plan validates the spec against the engine and expands it. It rejects
// unknown workloads, workloads the engine holds no closed form of, ladder
// indices beyond the devices' ladders, and specs whose points, at their
// resolved iteration counts, would produce more than MaxRecords iteration
// records, before it allocates them.
func (e *Engine) Plan(spec Spec) (Plan, error) {
	if err := spec.Validate(); err != nil {
		return Plan{}, err
	}
	profs, err := e.profiles(spec.Workloads)
	if err != nil {
		return Plan{}, err
	}
	p := Plan{e: e, spec: spec, profs: profs, base: e.baseConfig(&spec)}
	if err := p.base.Validate(); err != nil {
		return Plan{}, err
	}
	if spec.Draws > 0 {
		if err := e.checkRecords(profs, &p.base, spec.Draws); err != nil {
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
	if err := e.checkRecords(profs, &p.base, len(cores)*len(mems)); err != nil {
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

// profiles selects the named profiles as workload.Select does, and fails
// on one the engine holds no closed form of, before any point is
// evaluated.
func (e *Engine) profiles(names []string) ([]*workload.Profile, error) {
	profs, err := workload.Select(e.Profiles, names)
	if err != nil {
		return nil, err
	}
	for _, p := range profs {
		if e.form(p.Name) == nil {
			return nil, errNoForm(p.Name)
		}
	}
	return profs, nil
}

// checkRecords rejects n points per profile whose iteration records, at
// the iteration count core resolves for each profile under base, would
// exceed MaxRecords. Every profile has a form (profiles).
func (e *Engine) checkRecords(profs []*workload.Profile, base *core.Config, n int) error {
	total := 0
	for _, p := range profs {
		it, _ := e.form(p.Name).Admits(base)
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

// baseConfig builds a spec's shared framework configuration — the
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

// specialize returns base specialized to one point: a ladder point's
// initial levels, stored in lv, or a draw point's per-draw fault plan
// (which wins over the ambient one). lv is caller storage, and the result
// is returned by value, so a caller that keeps the configuration in its
// own frame keeps the levels there too.
func specialize(base core.Config, spec *Spec, pt Point, lv *core.Levels) core.Config {
	if pt.Draw >= 0 {
		plan := faultinject.Default(parallel.TaskSeed(spec.Seed, pt.Draw))
		base.FaultPlan = &plan
	} else {
		*lv = core.Levels{Core: pt.Core, Mem: pt.Mem, CPU: pt.CPU}
		base.InitialLevels = lv
	}
	return base
}

// Eval evaluates the named workload under one explicit configuration
// through the engine's evaluation body. A nil cfg.FaultPlan inherits the
// engine's ambient plan, mirroring Engine.Run. The bool reports whether
// the closed-form evaluator produced the result.
func (e *Engine) Eval(name string, cfg core.Config) (*core.Result, bool, error) {
	cf := e.form(name)
	if cf == nil {
		return nil, false, errNoForm(name)
	}
	e.inheritPlan(&cfg)
	if err := cfg.Validate(); err != nil {
		return nil, false, err
	}
	iters, fast := cf.Admits(&cfg)
	count(1, fast)
	r, err := e.result(cf, &cfg, iters, fast)
	return r, fast, err
}

// Key returns the run-cache fingerprint the engine would use for the
// named workload under cfg (after inheriting the engine's ambient fault
// plan), or false when the configuration is not cacheable. External dedup
// layers group by this key so their groups collapse exactly when the
// cache would collapse them.
func (e *Engine) Key(name string, cfg core.Config) (runcache.Key, bool, error) {
	cf := e.form(name)
	if cf == nil {
		return runcache.Key{}, false, errNoForm(name)
	}
	e.inheritPlan(&cfg)
	if !runcache.Cacheable(&cfg) {
		return runcache.Key{}, false, nil
	}
	return runcache.KeyOf(&e.GPU, &e.CPU, &e.Bus, cf.Profile, &cfg, ""), true, nil
}

// Memo returns compute's value for prof under cfg. When the engine has a
// run cache and the cache keeps cfg, it goes through the cache, keyed by
// the engine's devices, prof, cfg and variant ("" for a plain run), so
// concurrent callers of one key single-flight onto one computation;
// otherwise Memo calls compute directly. Every memoized evaluation — a
// point's full result, a sweet-spot search, a metered study run — goes
// through it.
func (e *Engine) Memo(prof *workload.Profile, cfg *core.Config, variant string, compute func() (runcache.Value, error)) (runcache.Value, error) {
	if !e.keeps(cfg) {
		return compute()
	}
	return e.Cache.Do(runcache.KeyOf(&e.GPU, &e.CPU, &e.Bus, prof, cfg, variant), compute)
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
	e := p.e
	metricBatches.Inc()
	for _, pr := range p.profs {
		// Every workload has the same number of points. A ladder point
		// takes its workload's path, because Admits reads no field
		// specialize sets; a draw point's per-draw plan is armed, and the
		// closed form never admits an armed plan.
		_, fast := e.form(pr.Name).Admits(&p.base)
		count(len(p.Points)/len(p.profs), fast && p.spec.Draws == 0)
	}
	return parallel.Map(ctx, p.Points,
		func(_ int, pt Point) (PointResult, error) {
			return e.evalPoint(e.form(pt.Workload), &p.spec, &p.base, pt)
		}, e.Jobs)
}

// evalPoint evaluates one point of a spec, the workload's form cf given:
// the validated base configuration specialized to the point, through the
// evaluation body. It counts nothing; Plan.Run and PredictSweetSpots count
// their points. Per-draw plans (validated by core.Run on the fallback
// path) are the only per-point deviation from the base. A closed-form
// point that no run cache will keep accumulates only its totals, from a
// configuration in this frame: nothing reads its per-iteration records,
// and nothing keeps the configuration, so the point allocates nothing.
// result can keep its configuration past the call (core.Run's framework, a
// cache entry's computation), so it gets its own.
func (e *Engine) evalPoint(cf *core.ClosedForm, spec *Spec, base *core.Config, pt Point) (PointResult, error) {
	var lv core.Levels
	cfg := specialize(*base, spec, pt, &lv)
	iters, fast := cf.Admits(&cfg)
	if fast && !e.keeps(&cfg) {
		var r core.Result // nil Iterations: the loop stores no records
		if err := cf.Totals(&cfg, iters, &r); err != nil {
			return PointResult{Point: pt, Fast: fast}, err
		}
		return totals(pt, &r, fast), nil
	}
	own := specialize(*base, spec, pt, new(core.Levels))
	r, err := e.result(cf, &own, iters, fast)
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

// count adds n points, all on one path, to the sweep counters.
// Callers count once per plan, search or Eval, not once per point; the
// path, from ClosedForm.Admits, depends only on the form and the
// configuration, so it is the same on a cache hit and a miss.
func count(n int, fast bool) {
	metricPoints.Add(uint64(n))
	if fast {
		metricFastPath.Add(uint64(n))
	} else {
		metricFallback.Add(uint64(n))
	}
}

// keeps reports whether the engine's run cache will keep cfg's result.
func (e *Engine) keeps(cfg *core.Config) bool {
	return e.Cache != nil && runcache.Cacheable(cfg)
}

// result computes cfg's full result on the path Admits chose — the closed
// form or core.Run on a fresh machine — through Memo. Admits and result
// are the evaluation body every point goes through; evalPoint bypasses
// result only for a closed-form point no cache keeps.
func (e *Engine) result(cf *core.ClosedForm, cfg *core.Config, iters int, fast bool) (*core.Result, error) {
	v, err := e.Memo(cf.Profile, cfg, "", func() (runcache.Value, error) {
		if fast {
			r, err := cf.Run(cfg, iters)
			return runcache.Value{Result: r}, err
		}
		r, err := core.Run(testbed.NewFrom(e.GPU, e.CPU, e.Bus), cf.Profile, *cfg)
		return runcache.Value{Result: r}, err
	})
	return v.Result, err
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
