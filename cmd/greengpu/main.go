// Command greengpu runs one evaluation workload on the simulated GPU-CPU
// testbed under a chosen energy-management configuration and reports
// energy, execution time and per-iteration behaviour.
//
// Usage:
//
//	greengpu -workload kmeans -mode greengpu
//	greengpu -workload hotspot -mode division -iterations 10 -trace
//	greengpu -list
//
// Modes: baseline (Rodinia default: all work on the GPU, peak clocks),
// freqscaling (tier 2 only), division (tier 1 only), greengpu (holistic).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"greengpu/internal/core"
	"greengpu/internal/division"
	"greengpu/internal/experiments"
	"greengpu/internal/trace"
)

func main() {
	var (
		workload   = flag.String("workload", "kmeans", "workload name (see -list)")
		mode       = flag.String("mode", "greengpu", "baseline | freqscaling | division | greengpu")
		iterations = flag.Int("iterations", 0, "iteration count override (0 = workload default)")
		showTrace  = flag.Bool("trace", false, "print the per-iteration trace")
		compare    = flag.Bool("compare", true, "also run the baseline and report savings")
		list       = flag.Bool("list", false, "list available workloads and exit")
		divider    = flag.String("divider", "step", "tier 1 policy: step (paper heuristic) | qilin (adaptive mapping)")
		fixed8     = flag.Bool("fixed8", false, "run tier 2 on the 8-bit fixed-point weight table (§VI sketch)")
		jsonOut    = flag.Bool("json", false, "emit the result as JSON on stdout")
	)
	flag.Parse()

	env, err := experiments.NewEnv()
	if err != nil {
		fatal(err)
	}

	if *list {
		for _, p := range env.Profiles {
			fmt.Printf("%-14s %s\n", p.Name, p.Description)
		}
		return
	}

	m, err := core.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}

	p, err := env.Profile(*workload)
	if err != nil {
		fatal(err)
	}

	cfg := core.DefaultConfig(m)
	cfg.Iterations = *iterations
	cfg.Fixed8Scaler = *fixed8
	switch *divider {
	case "step":
	case "qilin":
		cfg.DivisionPolicy = division.NewQilin(division.DefaultQilinConfig())
	default:
		fatal(fmt.Errorf("unknown divider %q", *divider))
	}
	res, err := core.Run(env.Machine(), p, cfg)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		emitJSON(res)
		return
	}

	fmt.Printf("workload   %s\n", res.Workload)
	fmt.Printf("mode       %v\n", res.Mode)
	fmt.Printf("iterations %d\n", len(res.Iterations))
	fmt.Printf("exec time  %.1f s\n", res.TotalTime.Seconds())
	fmt.Printf("energy     %.1f kJ (GPU %.1f kJ, CPU side %.1f kJ)\n",
		res.Energy.Joules()/1e3, res.EnergyGPU.Joules()/1e3, res.EnergyCPU.Joules()/1e3)
	fmt.Printf("avg power  %.1f W\n", res.AveragePower().Watts())
	if m == core.Division || m == core.Holistic {
		fmt.Printf("division   converged to %.0f/%.0f (CPU/GPU)\n",
			res.FinalRatio*100, (1-res.FinalRatio)*100)
	}

	if *compare && m != core.Baseline {
		bcfg := core.DefaultConfig(core.Baseline)
		bcfg.Iterations = *iterations
		base, err := core.Run(env.Machine(), p, bcfg)
		if err != nil {
			fatal(err)
		}
		saving := 1 - float64(res.Energy)/float64(base.Energy)
		delta := float64(res.TotalTime)/float64(base.TotalTime) - 1
		fmt.Printf("vs default %.2f%% energy saving, %+.2f%% execution time\n", saving*100, delta*100)
	}

	if *showTrace {
		t := trace.NewTable("\nper-iteration trace",
			"iter", "cpu %", "tc (s)", "tg (s)", "wall (s)", "energy (kJ)", "gpu levels", "cpu level")
		for _, it := range res.Iterations {
			t.AddRow(
				fmt.Sprintf("%d", it.Index+1),
				fmt.Sprintf("%.0f", it.R*100),
				fmt.Sprintf("%.1f", it.TC.Seconds()),
				fmt.Sprintf("%.1f", it.TG.Seconds()),
				fmt.Sprintf("%.1f", it.WallTime.Seconds()),
				fmt.Sprintf("%.2f", it.Energy.Joules()/1e3),
				fmt.Sprintf("(%d,%d)", it.CoreLevel, it.MemLevel),
				fmt.Sprintf("%d", it.CPULevel))
		}
		if err := t.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// jsonResult is the machine-readable run summary emitted by -json.
type jsonResult struct {
	Workload    string  `json:"workload"`
	Mode        string  `json:"mode"`
	Iterations  int     `json:"iterations"`
	ExecSeconds float64 `json:"exec_seconds"`
	EnergyJ     float64 `json:"energy_joules"`
	EnergyGPUJ  float64 `json:"energy_gpu_joules"`
	EnergyCPUJ  float64 `json:"energy_cpu_joules"`
	AvgPowerW   float64 `json:"avg_power_watts"`
	FinalRatio  float64 `json:"final_cpu_share"`
	DVFSSteps   int     `json:"dvfs_steps"`

	IterationTrace []jsonIteration `json:"iteration_trace"`
}

type jsonIteration struct {
	Index       int     `json:"index"`
	CPUShare    float64 `json:"cpu_share"`
	TCSeconds   float64 `json:"tc_seconds"`
	TGSeconds   float64 `json:"tg_seconds"`
	WallSeconds float64 `json:"wall_seconds"`
	EnergyJ     float64 `json:"energy_joules"`
	CoreLevel   int     `json:"gpu_core_level"`
	MemLevel    int     `json:"gpu_mem_level"`
	CPULevel    int     `json:"cpu_level"`
}

func emitJSON(res *core.Result) {
	out := jsonResult{
		Workload:    res.Workload,
		Mode:        res.Mode.String(),
		Iterations:  len(res.Iterations),
		ExecSeconds: res.TotalTime.Seconds(),
		EnergyJ:     res.Energy.Joules(),
		EnergyGPUJ:  res.EnergyGPU.Joules(),
		EnergyCPUJ:  res.EnergyCPU.Joules(),
		AvgPowerW:   res.AveragePower().Watts(),
		FinalRatio:  res.FinalRatio,
		DVFSSteps:   res.DVFSSteps,
	}
	for _, it := range res.Iterations {
		out.IterationTrace = append(out.IterationTrace, jsonIteration{
			Index:       it.Index,
			CPUShare:    it.R,
			TCSeconds:   it.TC.Seconds(),
			TGSeconds:   it.TG.Seconds(),
			WallSeconds: it.WallTime.Seconds(),
			EnergyJ:     it.Energy.Joules(),
			CoreLevel:   it.CoreLevel,
			MemLevel:    it.MemLevel,
			CPULevel:    it.CPULevel,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "greengpu:", err)
	os.Exit(1)
}
