package main

import (
	"encoding/json"
	"fmt"
	"time"

	"greengpu"
)

// testbed is the default simulated machine and workload set, the same
// ones greengpud serves, as seen through the public greengpu facade.
type testbed struct {
	profiles                         []*greengpu.WorkloadProfile
	names                            []string
	coreMHz, memMHz, cpuMHz          []float64
	coreLevels, memLevels, cpuLevels int
}

func newTestbed() (*testbed, error) {
	profiles, err := greengpu.Rodinia()
	if err != nil {
		return nil, err
	}
	tb := &testbed{profiles: profiles}
	for _, p := range profiles {
		tb.names = append(tb.names, p.Name)
	}
	m := greengpu.NewTestbed()
	for _, f := range m.GPU.Config().CoreLevels {
		tb.coreMHz = append(tb.coreMHz, f.MHz())
	}
	for _, f := range m.GPU.Config().MemLevels {
		tb.memMHz = append(tb.memMHz, f.MHz())
	}
	for _, s := range m.CPU.Config().PStates {
		tb.cpuMHz = append(tb.cpuMHz, s.Frequency.MHz())
	}
	tb.coreLevels, tb.memLevels, tb.cpuLevels = len(tb.coreMHz), len(tb.memMHz), len(tb.cpuMHz)
	return tb, nil
}

// ladder lists the points of a full core x mem ladder sweep over names,
// in the daemon's documented order: workloads, then core, then mem.
func (tb *testbed) ladder(names []string, mode greengpu.Mode, iters, cpu int) []point {
	var pts []point
	for _, w := range names {
		for c := 0; c < tb.coreLevels; c++ {
			for m := 0; m < tb.memLevels; m++ {
				pts = append(pts, point{workload: w, mode: mode, iters: iters, core: c, mem: m, cpu: cpu})
			}
		}
	}
	return pts
}

// oracle computes reference results by running each point directly
// through greengpu.Run on a fresh testbed: one event-by-event simulation
// per point, with no HTTP, batching, cache or closed-form evaluator in
// the way.
type oracle struct {
	tb      *testbed
	results map[point]*greengpu.Result
	runs    int
	spent   time.Duration
}

func newOracle(tb *testbed) *oracle {
	return &oracle{tb: tb, results: make(map[point]*greengpu.Result)}
}

func (o *oracle) result(p point) (*greengpu.Result, error) {
	if r, ok := o.results[p]; ok {
		return r, nil
	}
	prof, err := greengpu.Profile(o.tb.profiles, p.workload)
	if err != nil {
		return nil, err
	}
	cfg := greengpu.DefaultConfig(p.mode)
	cfg.Iterations = p.iters
	cfg.InitialLevels = &greengpu.Levels{Core: p.core, Mem: p.mem, CPU: p.cpu}
	start := time.Now()
	r, err := greengpu.Run(greengpu.NewTestbed(), prof, cfg)
	o.spent += time.Since(start)
	o.runs++
	if err != nil {
		return nil, fmt.Errorf("reference run %+v: %w", p, err)
	}
	o.results[p] = r
	return r, nil
}

// The response shapes of POST /v1/simulate and /v1/sweep, restricted to
// the fields the benchmark checks.
type simulateBody struct {
	Mode       string  `json:"mode"`
	Iterations int     `json:"iterations"`
	FinalRatio float64 `json:"final_ratio"`
	DVFSSteps  int     `json:"dvfs_steps"`
	EDP        float64 `json:"edp_js"`
	pointBody
}

type sweepBody struct {
	Points []pointBody `json:"points"`
}

type pointBody struct {
	Workload    string  `json:"workload"`
	Core        int     `json:"core"`
	Mem         int     `json:"mem"`
	CPU         int     `json:"cpu"`
	CoreMHz     float64 `json:"core_mhz"`
	MemMHz      float64 `json:"mem_mhz"`
	CPUMHz      float64 `json:"cpu_mhz"`
	ExecSeconds float64 `json:"exec_s"`
	EnergyJ     float64 `json:"energy_j"`
	EnergyGPUJ  float64 `json:"energy_gpu_j"`
	EnergyCPUJ  float64 `json:"energy_cpu_j"`
}

// check decodes a response body of req and compares every field the
// benchmark checks, exactly, against the reference simulation.
func (o *oracle) check(req *request, body []byte) error {
	if req.path == "/v1/simulate" {
		var got simulateBody
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decode %s: %w", req.path, err)
		}
		p := req.points[0]
		r, err := o.result(p)
		if err != nil {
			return err
		}
		switch {
		case got.Mode != p.mode.String():
			return fmt.Errorf("%+v: mode %q, want %q", p, got.Mode, p.mode.String())
		case got.Iterations != len(r.Iterations):
			return fmt.Errorf("%+v: iterations %d, want %d", p, got.Iterations, len(r.Iterations))
		case got.FinalRatio != r.FinalRatio || got.DVFSSteps != r.DVFSSteps:
			return fmt.Errorf("%+v: ratio/steps %v/%d, want %v/%d", p, got.FinalRatio, got.DVFSSteps, r.FinalRatio, r.DVFSSteps)
		case got.EDP != r.Energy.Joules()*r.TotalTime.Seconds():
			return fmt.Errorf("%+v: edp %v, want %v", p, got.EDP, r.Energy.Joules()*r.TotalTime.Seconds())
		}
		return o.checkPoint(p, r, &got.pointBody)
	}
	var got sweepBody
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode %s: %w", req.path, err)
	}
	if len(got.Points) != len(req.points) {
		return fmt.Errorf("%s: %d points, want %d", req.body, len(got.Points), len(req.points))
	}
	for i, p := range req.points {
		r, err := o.result(p)
		if err != nil {
			return err
		}
		if err := o.checkPoint(p, r, &got.Points[i]); err != nil {
			return fmt.Errorf("%s point %d: %w", req.body, i, err)
		}
	}
	return nil
}

func (o *oracle) checkPoint(p point, r *greengpu.Result, got *pointBody) error {
	want := pointBody{
		Workload:    p.workload,
		Core:        p.core,
		Mem:         p.mem,
		CPU:         p.cpu,
		CoreMHz:     o.tb.coreMHz[p.core],
		MemMHz:      o.tb.memMHz[p.mem],
		CPUMHz:      o.tb.cpuMHz[p.cpu],
		ExecSeconds: r.TotalTime.Seconds(),
		EnergyJ:     r.Energy.Joules(),
		EnergyGPUJ:  r.EnergyGPU.Joules(),
		EnergyCPUJ:  r.EnergyCPU.Joules(),
	}
	if *got != want {
		return fmt.Errorf("%+v: got %+v, want %+v", p, *got, want)
	}
	return nil
}
