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
	"greengpu/internal/gpusim"
	"greengpu/internal/parallel"
	"greengpu/internal/runcache"
	"greengpu/internal/sweep"
	"greengpu/internal/testbed"
	"greengpu/internal/workload"
)

// Env is the sweep engine every experiment runs against: the testbed's
// device configurations, the calibrated workloads, and the execution
// settings the studies share — Jobs, the run Cache and the chaos-mode
// FaultPlan (cmd/experiments -faults default). Every study point but Fig.
// 5's two metered runs is one sweep.Engine.Eval on this engine, so it
// takes the closed form or a fresh machine exactly as a sweep point
// would, under the same run-cache key.
//
// An Env is safe for concurrent use: the configurations, profiles and
// closed forms are immutable after construction, and every run off the
// closed form builds its own fresh machine. Experiments exploit this by
// fanning independent points out over a worker pool bounded by Jobs. A
// by-value copy shares the closed forms and carries its own settings, so
// a copy with other settings runs every point under the copy's settings.
type Env struct {
	sweep.Engine
}

// NewEnv builds the default environment: the paper's testbed devices and
// the nine Table II workloads.
func NewEnv() (*Env, error) {
	return NewEnvFrom(testbed.GeForce8800GTX(), testbed.PhenomIIX2(), testbed.PCIe())
}

// NewEnvFrom builds an environment from explicit device configurations,
// recalibrating all workloads against them, with default execution
// settings.
func NewEnvFrom(gpu gpusim.Config, cpu cpusim.Config, b bus.Config) (*Env, error) {
	return new(Env).derive(gpu, cpu, b)
}

// Machine assembles a fresh testbed. Every run gets its own machine so the
// exact energy accounting always starts from zero.
func (e *Env) Machine() *testbed.Machine {
	return testbed.NewFrom(e.GPU, e.CPU, e.Bus)
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

// run evaluates one point through the environment's engine.
func (e *Env) run(name string, cfg core.Config) (*core.Result, error) {
	r, _, err := e.Eval(name, cfg)
	return r, err
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
	if cfg.FaultPlan == nil {
		cfg.FaultPlan = e.FaultPlan
	}
	v, err := e.Memo(p, &cfg, "gpu-meter", func() (runcache.Value, error) {
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
	})
	return v.Result, v.GPUPower, err
}

// derive builds an environment from explicit device configurations,
// recalibrating all workloads against them and carrying over this
// environment's execution settings (Jobs, Cache, chaos FaultPlan). Studies that recalibrate against other devices
// use it so one Jobs knob and one cache govern the whole experiment tree;
// points key by their full device configs and recalibrated profiles, so a
// derived env's entries never collide with this one's.
func (e *Env) derive(gpu gpusim.Config, cpu cpusim.Config, b bus.Config) (*Env, error) {
	profiles, err := workload.Rodinia(gpu, cpu)
	if err != nil {
		return nil, err
	}
	return e.on(gpu, cpu, b, profiles)
}

// on builds an environment on the devices and profiles through sweep.New,
// carrying over this environment's execution settings (Jobs, Cache, chaos
// FaultPlan).
func (e *Env) on(gpu gpusim.Config, cpu cpusim.Config, b bus.Config, profiles []*workload.Profile) (*Env, error) {
	eng, err := sweep.New(gpu, cpu, b, profiles)
	if err != nil {
		return nil, err
	}
	eng.Jobs, eng.Cache, eng.FaultPlan = e.Jobs, e.Cache, e.FaultPlan
	return &Env{Engine: *eng}, nil
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
