package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"greengpu"
)

// point is one simulation point: a workload under one mode, iteration
// count and initial (core, mem, cpu) level triple. It is the key of both
// the daemon's run cache and the benchmark's reference results.
type point struct {
	workload       string
	mode           greengpu.Mode
	iters          int
	core, mem, cpu int
}

// request is one distinct HTTP request of a workload, with the points its
// response must carry, in order.
type request struct {
	path   string
	body   []byte
	points []point
}

// plan is a workload's inputs: the distinct requests it can send and, per
// closed-loop client, a seeded stream of indices into them.
type plan struct {
	reqs    []request
	streams []func() int
	// prefill is how many leading requests are sent once, in order,
	// before the warm-up traffic: the hot set the first users of a fresh
	// daemon put into its run cache.
	prefill int
}

// workload is one traffic mix against one daemon deployment.
type workload struct {
	name string
	// flags are the greengpud flags of the deployment the mix targets.
	flags []string
	// clients is the number of closed-loop clients: each sends its next
	// request only after the previous response has been read.
	clients int
	build   func(seed uint64, clients int, tb *testbed) (*plan, error)
}

// modes are the four framework modes, in the daemon's spelling.
var modes = []struct {
	name string
	mode greengpu.Mode
}{
	{"baseline", greengpu.Baseline},
	{"scaling", greengpu.FreqScaling},
	{"division", greengpu.Division},
	{"holistic", greengpu.Holistic},
}

var workloads = []workload{
	{
		// Repeat single points from a warm run cache: the load of
		// BenchmarkDaemonSimulateWarm and docs/SERVICE.md's single-point
		// floor (HTTP framing plus one cache lookup per request).
		name:    "simulate-warm",
		clients: 4,
		build:   buildSimulateWarm,
	},
	{
		// Full core x mem ladder sweeps in holistic mode (GreenGPU proper)
		// on a daemon without a run cache, so every point is the full
		// event-by-event simulation: sim, gpusim, cpusim, dvfs, wma,
		// governor and division all run.
		name:    "holistic-sweep",
		flags:   []string{"-no-cache"},
		clients: 1,
		build:   buildHolisticSweep,
	},
	{
		// 324-point baseline ladders over every workload on a daemon
		// without a run cache, so every point goes through the closed-form
		// batch evaluator and the batch JSON rendering.
		name:    "batch-fastpath",
		flags:   []string{"-no-cache"},
		clients: 2,
		build:   buildBatchFastpath,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Single-point pool shape. Every (workload, mode) pair gets simulateReps
// points at each iteration count 1..maxIters (mean 4.5, about the 4
// iterations of the repo's daemon benchmarks and docs), with seeded initial
// levels: the seed changes which levels and the order, not the mix of modes
// and iteration counts.
const (
	simulateReps = 2
	maxIters     = 8
)

// buildSimulateWarm is the single-point pool with a seeded walk per client.
// The whole pool is sent once before the warm-up, so every measured request
// is a run-cache hit.
func buildSimulateWarm(seed uint64, clients int, tb *testbed) (*plan, error) {
	rng := rand.New(rand.NewPCG(seed, 0))
	seen := make(map[point]bool)
	pl := &plan{}
	for _, w := range tb.names {
		for _, m := range modes {
			for it := 1; it <= maxIters; it++ {
				for r := 0; r < simulateReps; r++ {
					p := point{workload: w, mode: m.mode, iters: it}
					for {
						p.core, p.mem, p.cpu = rng.IntN(tb.coreLevels), rng.IntN(tb.memLevels), rng.IntN(tb.cpuLevels)
						if !seen[p] {
							break
						}
					}
					seen[p] = true
					body, err := json.Marshal(map[string]any{
						"workload": p.workload, "mode": m.name, "iterations": p.iters,
						"core": p.core, "mem": p.mem, "cpu": p.cpu,
					})
					if err != nil {
						return nil, err
					}
					pl.reqs = append(pl.reqs, request{path: "/v1/simulate", body: body, points: []point{p}})
				}
			}
		}
	}
	pl.prefill = len(pl.reqs)
	pl.uniformStreams(seed, clients)
	return pl, nil
}

// Holistic sweep shape: every (workload, cpu P-state) pair at a few
// iteration counts, each a full core x mem ladder.
const (
	sweepMinIters = 3
	sweepMaxIters = 5
)

func buildHolisticSweep(seed uint64, clients int, tb *testbed) (*plan, error) {
	pl := &plan{}
	for _, w := range tb.names {
		for cpu := 0; cpu < tb.cpuLevels; cpu++ {
			for it := sweepMinIters; it <= sweepMaxIters; it++ {
				spec := fmt.Sprintf("workloads=%s core=all mem=all cpu=%d iters=%d mode=holistic", w, cpu, it)
				if err := pl.addSweep(spec, tb.ladder([]string{w}, greengpu.Holistic, it, cpu)); err != nil {
					return nil, err
				}
			}
		}
	}
	pl.uniformStreams(seed, clients)
	return pl, nil
}

func buildBatchFastpath(seed uint64, clients int, tb *testbed) (*plan, error) {
	pl := &plan{}
	for cpu := 0; cpu < tb.cpuLevels; cpu++ {
		for it := 1; it <= maxIters; it++ {
			spec := fmt.Sprintf("workloads=all core=all mem=all cpu=%d iters=%d", cpu, it)
			if err := pl.addSweep(spec, tb.ladder(tb.names, greengpu.Baseline, it, cpu)); err != nil {
				return nil, err
			}
		}
	}
	pl.uniformStreams(seed, clients)
	return pl, nil
}

func (pl *plan) addSweep(spec string, pts []point) error {
	body, err := json.Marshal(map[string]string{"spec": spec})
	pl.reqs = append(pl.reqs, request{path: "/v1/sweep", body: body, points: pts})
	return err
}

// uniformStreams gives each client its own seeded walk over every request
// of the plan.
func (pl *plan) uniformStreams(seed uint64, clients int) {
	for c := 0; c < clients; c++ {
		pl.streams = append(pl.streams, cycle(rand.New(rand.NewPCG(seed, uint64(c+1))), len(pl.reqs)))
	}
}

// cycle walks seeded permutations of [0, n) back to back, so within every
// pass each index is drawn exactly once and the mix of a run does not
// depend on sampling luck.
func cycle(r *rand.Rand, n int) func() int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	i := len(perm)
	return func() int {
		if i == len(perm) {
			r.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
			i = 0
		}
		i++
		return perm[i-1]
	}
}
