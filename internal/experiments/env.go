// Package experiments regenerates every table and figure of the GreenGPU
// evaluation (paper §III and §VII) on the simulated testbed. Each
// experiment has a typed runner returning structured results plus a
// rendering helper producing the rows/series the paper reports.
//
// Experiment index:
//
//	Fig1    — exec time / energy vs per-domain frequency (nbody, SC)
//	Fig2    — system energy vs static CPU share (kmeans)
//	Fig5    — DVFS trace on streamcluster vs best-performance
//	Fig6    — frequency-scaling savings per workload (a: GPU energy,
//	          b: dynamic energy + exec time, c: CPU+GPU emulation)
//	Fig7    — workload-division convergence traces (kmeans, hotspot)
//	Fig8    — holistic vs single-tier per-iteration energy traces
//	Table2  — workload characterization
//	Sweep   — §VII-B static-division optimality study
//	Ablations — parameter sensitivity studies from DESIGN.md §6
package experiments

import (
	"context"

	"greengpu/internal/bus"
	"greengpu/internal/core"
	"greengpu/internal/cpusim"
	"greengpu/internal/faultinject"
	"greengpu/internal/gpusim"
	"greengpu/internal/parallel"
	"greengpu/internal/runcache"
	"greengpu/internal/sweep"
	"greengpu/internal/testbed"
	"greengpu/internal/workload"
)

// Env carries the device configurations and calibrated workloads every
// experiment runs against.
//
// An Env is safe for concurrent use: the configurations and profiles are
// immutable after construction, and every run assembles its own fresh
// machine (see Machine). Experiments exploit this by fanning independent
// points out over a worker pool bounded by Jobs.
type Env struct {
	GPUConfig gpusim.Config
	CPUConfig cpusim.Config
	BusConfig bus.Config
	Profiles  []*workload.Profile

	// Jobs bounds how many experiment points run concurrently when an
	// experiment fans out over independent runs. 0 selects one worker per
	// available CPU; 1 forces sequential execution. Results are identical
	// for every value — each point runs on its own fresh machine with
	// per-task deterministic seeding — so Jobs only trades wall-clock
	// time for cores.
	Jobs int

	// FaultPlan, when non-nil, is the chaos-mode ambient fault plan: every
	// run whose configuration does not carry its own plan injects this one
	// (cmd/experiments -faults default). Per-point configs always win, so
	// studies that sweep explicit plans — the resilience study, the
	// sensor-noise ablation — are unaffected. Outputs remain byte-identical
	// at any Jobs value: the plan is plain data, fingerprinted into each
	// point's cache key, and injection inside a run is seed-deterministic.
	FaultPlan *faultinject.Plan

	// Cache, when non-nil, memoizes simulation points by content-addressed
	// fingerprint: repeated points (the best-performance baseline alone is
	// requested by Fig. 6, Fig. 8, two ablations, and three extension
	// studies) simulate once and replay from the cache, and concurrent
	// requests for the same point single-flight onto one computation.
	// Because every run is deterministic and cached results are returned
	// as private deep copies, results are bit-identical with the cache on
	// or off, cold or warm. Runs whose configuration carries observers,
	// filters, or custom policies bypass the cache (see
	// runcache.Cacheable). Derived environments share this cache: points
	// are keyed by their full device configs and recalibrated profile, so
	// an identically-configured derived env hits, a different one cannot
	// collide.
	Cache *runcache.Cache
}

// NewEnv builds the default environment: the paper's testbed devices and
// the nine Table II workloads.
func NewEnv() (*Env, error) {
	return NewEnvFrom(testbed.GeForce8800GTX(), testbed.PhenomIIX2(), testbed.PCIe())
}

// NewEnvFrom builds an environment from explicit device configurations,
// recalibrating all workloads against them.
func NewEnvFrom(gpu gpusim.Config, cpu cpusim.Config, b bus.Config) (*Env, error) {
	profiles, err := workload.Rodinia(gpu, cpu)
	if err != nil {
		return nil, err
	}
	return &Env{GPUConfig: gpu, CPUConfig: cpu, BusConfig: b, Profiles: profiles}, nil
}

// Machine assembles a fresh testbed. Every run gets its own machine so the
// exact energy accounting always starts from zero.
func (e *Env) Machine() *testbed.Machine {
	return testbed.NewFrom(e.GPUConfig, e.CPUConfig, e.BusConfig)
}

// Profile returns the named calibrated workload.
func (e *Env) Profile(name string) (*workload.Profile, error) {
	return workload.ByName(e.Profiles, name)
}

// baselineConfig is the best-performance baseline every comparison in the
// suite measures against. The contract (paper §VII: the stock driver's
// performance governor): all frequency domains pinned at their highest
// levels, no DVFS, no workload division — the fastest, most
// energy-hungry way to run the workload. iters == 0 runs the profile's
// calibrated iteration count; Fig. 5 passes an explicit shortened count.
// Every figure, ablation, and extension study must compare against this
// exact configuration, never a local variant — which also makes the
// baseline a maximally shared cache point.
func baselineConfig(iters int) core.Config {
	cfg := core.DefaultConfig(core.Baseline)
	cfg.Iterations = iters
	return cfg
}

// scalingConfig is the frequency-scaling tier (tier 2 alone: GPU DVFS at
// the paper's 3 s interval, no workload division), the second most shared
// configuration in the suite.
func scalingConfig() core.Config {
	return core.DefaultConfig(core.FreqScaling)
}

// run executes a profile on a fresh machine, propagating errors. Points go
// through the run cache when one is attached.
func (e *Env) run(name string, cfg core.Config) (*core.Result, error) {
	p, err := e.Profile(name)
	if err != nil {
		return nil, err
	}
	return e.runPoint(e.GPUConfig, e.CPUConfig, e.BusConfig, p, cfg)
}

// runPoint executes one simulation point on a fresh machine assembled from
// explicit device configurations, consulting the cache when possible. It is
// the choke point every cacheable run funnels through: callers that build
// custom machines (e.g. the CPU-capability sweep) use it directly so their
// points share the suite-wide cache too.
//
// The fresh-machine-per-point contract: a point is a pure function of
// (device configs, profile, core config), so each one gets its own machine
// built from plain-value configs — never a shared or reused machine, whose
// accumulated meter state would leak between points and break bitwise
// reproducibility.
func (e *Env) runPoint(gpu gpusim.Config, cpu cpusim.Config, b bus.Config, p *workload.Profile, cfg core.Config) (*core.Result, error) {
	e.applyFaultPlan(&cfg)
	if e.Cache == nil || !runcache.Cacheable(&cfg) {
		return core.Run(testbed.NewFrom(gpu, cpu, b), p, cfg)
	}
	key := runcache.KeyOf(&gpu, &cpu, &b, p, &cfg, "")
	v, err := e.Cache.Do(key, func() (runcache.Value, error) {
		r, err := core.Run(testbed.NewFrom(gpu, cpu, b), p, cfg)
		return runcache.Value{Result: r}, err
	})
	if err != nil {
		return nil, err
	}
	return v.Result, nil
}

// runMeteredGPU is run with the GPU card power meter attached, returning
// the per-sample power trace in watts alongside the result. Metered runs
// are fingerprinted under a distinct variant so they never share a cache
// entry with plain runs of the same configuration.
func (e *Env) runMeteredGPU(name string, cfg core.Config) (*core.Result, []float64, error) {
	p, err := e.Profile(name)
	if err != nil {
		return nil, nil, err
	}
	e.applyFaultPlan(&cfg)
	compute := func() (runcache.Value, error) {
		m := e.Machine()
		m.MeterGPU.Start()
		r, err := core.Run(m, p, cfg)
		if err != nil {
			return runcache.Value{}, err
		}
		m.MeterGPU.Stop()
		samples := m.MeterGPU.Samples()
		power := make([]float64, len(samples))
		for i, s := range samples {
			power[i] = s.Power.Watts()
		}
		return runcache.Value{Result: r, GPUPower: power}, nil
	}
	if e.Cache == nil || !runcache.Cacheable(&cfg) {
		v, err := compute()
		return v.Result, v.GPUPower, err
	}
	key := runcache.KeyOf(&e.GPUConfig, &e.CPUConfig, &e.BusConfig, p, &cfg, "gpu-meter")
	v, err := e.Cache.Do(key, compute)
	if err != nil {
		return nil, nil, err
	}
	return v.Result, v.GPUPower, nil
}

// applyFaultPlan installs the chaos-mode ambient plan on configurations
// that do not carry their own. Both run choke points (runPoint,
// runMeteredGPU) call it before cacheability is decided, so chaos runs are
// fingerprinted under the plan they actually executed.
func (e *Env) applyFaultPlan(cfg *core.Config) {
	if cfg.FaultPlan == nil && e.FaultPlan != nil {
		cfg.FaultPlan = e.FaultPlan
	}
}

// derive builds an environment from explicit device configurations like
// NewEnvFrom, carrying over this environment's execution settings (Jobs,
// Cache, chaos FaultPlan). Studies that recalibrate against other devices
// use it so one Jobs knob and one cache govern the whole experiment tree.
func (e *Env) derive(gpu gpusim.Config, cpu cpusim.Config, b bus.Config) (*Env, error) {
	env2, err := NewEnvFrom(gpu, cpu, b)
	if err != nil {
		return nil, err
	}
	env2.Jobs = e.Jobs
	env2.Cache = e.Cache
	env2.FaultPlan = e.FaultPlan
	return env2, nil
}

// SweepEngine returns a batch sweep engine over the environment's devices
// and profiles that shares its worker pool, run cache and chaos plan, so
// batched points behave exactly like the per-point studies.
func (e *Env) SweepEngine() *sweep.Engine {
	return &sweep.Engine{
		GPU:       e.GPUConfig,
		CPU:       e.CPUConfig,
		Bus:       e.BusConfig,
		Profiles:  e.Profiles,
		Jobs:      e.Jobs,
		Cache:     e.Cache,
		FaultPlan: e.FaultPlan,
	}
}

// mapPoints fans fn out over the items on the environment's worker pool,
// returning the results in input order. It is the single scheduling choke
// point of the experiments layer: every figure/table fan-out goes through
// it, so Jobs bounds concurrency uniformly and error selection is
// deterministic (lowest failing index wins, as in parallel.Map).
//
// fn must follow the fresh-machine contract: build all mutable state (the
// machine, policies, PRNGs) inside the task, from plain-value inputs.
func mapPoints[T, R any](e *Env, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	return parallel.Map(context.Background(), items, fn, e.Jobs)
}
