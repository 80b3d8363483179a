package experiments

import (
	"math"
	"strings"
	"testing"

	"greengpu/internal/workload"
)

// env is shared across tests: the experiments are deterministic and the
// environment is immutable (every run gets a fresh machine).
var env = mustEnv()

func mustEnv() *Env {
	e, err := NewEnv()
	if err != nil {
		panic(err)
	}
	return e
}

func TestFig1Shapes(t *testing.T) {
	res, err := env.Fig1()
	if err != nil {
		t.Fatal(err)
	}

	// Panel 1a/1b (memory sweep): core-bounded nbody must save energy
	// with negligible performance loss as memory throttles.
	nbodyMem := res.Select("nbody", DomainMemory)
	if len(nbodyMem) != 6 {
		t.Fatalf("nbody memory sweep has %d points", len(nbodyMem))
	}
	lowest, peak := nbodyMem[0], nbodyMem[5]
	if lowest.NormTime > 1.06 {
		t.Errorf("nbody at lowest mem freq slowed %.1f%%, want minor", (lowest.NormTime-1)*100)
	}
	if lowest.RelEnergy >= peak.RelEnergy {
		t.Errorf("nbody memory throttle saved no energy: %.4f vs %.4f", lowest.RelEnergy, peak.RelEnergy)
	}

	// Memory-bounded streamcluster must suffer on both time and energy at
	// the lowest memory frequency.
	scMem := res.Select("streamcluster", DomainMemory)
	if scMem[0].NormTime < 1.10 {
		t.Errorf("SC at lowest mem freq slowed only %.1f%%, want substantial", (scMem[0].NormTime-1)*100)
	}

	// Panel 1c/1d (core sweep): nbody must suffer when its core throttles.
	nbodyCore := res.Select("nbody", DomainCore)
	if nbodyCore[0].NormTime < 1.10 {
		t.Errorf("nbody at lowest core freq slowed only %.1f%%", (nbodyCore[0].NormTime-1)*100)
	}
	// SC can throttle its core to the lowest level (the 410 MHz point)
	// with negligible loss and real energy savings.
	scCore := res.Select("streamcluster", DomainCore)
	if scCore[0].NormTime > 1.03 {
		t.Errorf("SC at 411 MHz core slowed %.1f%%, want negligible", (scCore[0].NormTime-1)*100)
	}
	if scCore[0].RelEnergy >= 1 {
		t.Errorf("SC core throttle saved no energy: %.4f", scCore[0].RelEnergy)
	}

	// Rendering sanity.
	var b strings.Builder
	if err := res.Table().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "nbody") {
		t.Error("table missing workload rows")
	}
}

func TestFig2UShape(t *testing.T) {
	res, err := env.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 10 {
		t.Fatalf("got %d points, want 10 (0%%..90%%)", len(res.Points))
	}
	// The paper's shape: energy decreases from 0% to the optimum at a
	// small CPU share, then increases toward 90%.
	if res.OptimalShare <= 0 || res.OptimalShare > 0.3 {
		t.Errorf("optimal CPU share = %.0f%%, want a small non-zero share (paper: 10%%)", res.OptimalShare*100)
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	var opt Fig2Point
	for _, p := range res.Points {
		if p.CPUShare == res.OptimalShare {
			opt = p
		}
	}
	if opt.Energy >= first.Energy {
		t.Errorf("cooperation (%.1f kJ) not cheaper than GPU-only (%.1f kJ)", opt.Energy.Joules()/1e3, first.Energy.Joules()/1e3)
	}
	if last.Energy <= opt.Energy {
		t.Error("energy did not climb past the optimum")
	}
	// Monotone descent before the optimum and ascent after it (U-shape).
	for i := 1; i < len(res.Points); i++ {
		a, b := res.Points[i-1], res.Points[i]
		if b.CPUShare <= res.OptimalShare && b.Energy > a.Energy {
			t.Errorf("energy rose before the optimum at %.0f%%", b.CPUShare*100)
		}
		if a.CPUShare >= res.OptimalShare && b.Energy < a.Energy {
			t.Errorf("energy fell after the optimum at %.0f%%", b.CPUShare*100)
		}
	}
}

func TestFig5Trace(t *testing.T) {
	res, err := env.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no DVFS samples recorded")
	}
	// The scaler must actually move the clocks during the fluctuating
	// workload: more than one distinct (core, mem) pair must appear.
	distinct := map[[2]float64]bool{}
	for _, s := range res.Samples {
		distinct[[2]float64{s.CoreMHz, s.MemMHz}] = true
	}
	if len(distinct) < 2 {
		t.Errorf("frequencies never moved: %v", distinct)
	}
	// Headline: lower average GPU power than best-performance at similar
	// execution time.
	if res.AvgPowerScaled >= res.AvgPowerBase {
		t.Errorf("avg power scaled (%v) not below baseline (%v)", res.AvgPowerScaled, res.AvgPowerBase)
	}
	delta := float64(res.ExecScaled)/float64(res.ExecBase) - 1
	if delta > 0.10 {
		t.Errorf("execution time inflated %.1f%%, want similar to baseline", delta*100)
	}
	if res.EnergyScaled >= res.EnergyBase {
		t.Error("scaling saved no GPU energy on streamcluster")
	}
	// The memory frequency should converge below the 900 MHz peak (the
	// paper observes 820 MHz), since SC's aggregate memory utilization
	// sits below 1.
	tail := res.Samples[len(res.Samples)-1]
	if tail.MemMHz >= 900 {
		t.Errorf("memory frequency stayed at peak (%v MHz)", tail.MemMHz)
	}
	if len(res.PowerScaled) == 0 || len(res.PowerBase) == 0 {
		t.Error("power traces missing")
	}
}

func TestFig6Savings(t *testing.T) {
	res, err := env.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(res.Rows))
	}
	byName := map[string]Fig6Row{}
	positive := 0
	for _, r := range res.Rows {
		byName[r.Workload] = r
		// High-utilization workloads have no throttling headroom: the
		// best the algorithm can do is stay at peak, and the cold-start
		// ramp (the card boots at its lowest clocks) costs a fraction
		// of a percent. Everything else must genuinely save.
		if r.GPUSaving <= -0.02 {
			t.Errorf("%s: GPU saving %.2f%%, want > -2%%", r.Workload, r.GPUSaving*100)
		}
		if r.GPUSaving > 0 {
			positive++
		}
		if r.ExecDelta > 0.10 {
			t.Errorf("%s: exec time +%.1f%%, want bounded", r.Workload, r.ExecDelta*100)
		}
	}
	if positive < 7 {
		t.Errorf("only %d/9 workloads saved GPU energy", positive)
	}
	s := res.Summary
	// Paper bands: avg 5.97% (we accept 3-12%), max 14.53% (we accept
	// ≥ 8%), dynamic avg 29.2% (≥ 15%), exec +2.95% (≤ 6%), system
	// emulated 12.48% (≥ 6%).
	if s.AvgGPUSaving < 0.03 || s.AvgGPUSaving > 0.12 {
		t.Errorf("avg GPU saving %.2f%% outside 3-12%% band (paper 5.97%%)", s.AvgGPUSaving*100)
	}
	if s.MaxGPUSaving < 0.08 {
		t.Errorf("max GPU saving %.2f%%, want >= 8%% (paper 14.53%%)", s.MaxGPUSaving*100)
	}
	if s.AvgDynamicSaving < 0.15 {
		t.Errorf("avg dynamic saving %.2f%%, want >= 15%% (paper 29.2%%)", s.AvgDynamicSaving*100)
	}
	if s.AvgExecDelta > 0.06 {
		t.Errorf("avg exec delta %.2f%%, want <= 6%% (paper 2.95%%)", s.AvgExecDelta*100)
	}
	if s.AvgSystemSaving < 0.06 {
		t.Errorf("avg CPU+GPU saving %.2f%%, want >= 6%% (paper 12.48%%)", s.AvgSystemSaving*100)
	}
	// Workload-class ordering: the low-utilization workloads (PF, lud)
	// must save more than the saturated one (bfs).
	if byName["PF"].GPUSaving <= byName["bfs"].GPUSaving {
		t.Errorf("PF (%.2f%%) should out-save bfs (%.2f%%)",
			byName["PF"].GPUSaving*100, byName["bfs"].GPUSaving*100)
	}
	if byName["lud"].GPUSaving <= byName["bfs"].GPUSaving {
		t.Errorf("lud (%.2f%%) should out-save bfs (%.2f%%)",
			byName["lud"].GPUSaving*100, byName["bfs"].GPUSaving*100)
	}
}

func TestFig7Convergence(t *testing.T) {
	kmeans, err := env.Fig7("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(kmeans.ConvergedRatio-0.20) > 0.051 {
		t.Errorf("kmeans converged to %.0f%%, want ~20%%", kmeans.ConvergedRatio*100)
	}
	if kmeans.ConvergedAfter > 6 {
		t.Errorf("kmeans took %d iterations to converge, want a handful (paper: 4)", kmeans.ConvergedAfter)
	}
	hotspot, err := env.Fig7("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hotspot.ConvergedRatio-0.50) > 0.051 {
		t.Errorf("hotspot converged to %.0f%%, want ~50%%", hotspot.ConvergedRatio*100)
	}
	// Execution times must approach balance at convergence.
	last := kmeans.Iterations[len(kmeans.Iterations)-1]
	imbalance := math.Abs(float64(last.TC-last.TG)) / float64(last.WallTime)
	if imbalance > 0.25 {
		t.Errorf("kmeans final imbalance %.2f", imbalance)
	}
}

func TestFig8Holistic(t *testing.T) {
	for _, name := range []string{"hotspot", "kmeans"} {
		res, err := env.Fig8(name)
		if err != nil {
			t.Fatal(err)
		}
		if res.SavingVsDivision <= 0 {
			t.Errorf("%s: holistic does not beat division-only (%.2f%%)", name, res.SavingVsDivision*100)
		}
		if res.SavingVsFreqScaling <= 0 {
			t.Errorf("%s: holistic does not beat frequency-scaling-only (%.2f%%)", name, res.SavingVsFreqScaling*100)
		}
		if res.SavingVsBaseline <= 0.05 {
			t.Errorf("%s: holistic saving vs default %.2f%%, want > 5%%", name, res.SavingVsBaseline*100)
		}
		// The paper: holistic costs only 1.7% more time than division.
		if res.ExecDeltaVsDivision > 0.05 {
			t.Errorf("%s: exec +%.2f%% vs division, want small", name, res.ExecDeltaVsDivision*100)
		}
		if len(res.Iterations) == 0 {
			t.Error("no per-iteration trace")
		}
	}
}

func TestFig8AverageSaving(t *testing.T) {
	// The headline claim: 21.04% average saving for kmeans and hotspot vs
	// the Rodinia default. Accept the 15-35% band on the simulator.
	var sum float64
	for _, name := range []string{"hotspot", "kmeans"} {
		res, err := env.Fig8(name)
		if err != nil {
			t.Fatal(err)
		}
		sum += res.SavingVsBaseline
	}
	avg := sum / 2
	if avg < 0.15 || avg > 0.35 {
		t.Errorf("average holistic saving %.2f%% outside 15-35%% band (paper 21.04%%)", avg*100)
	}
}

func TestTable2Characterization(t *testing.T) {
	res, err := env.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(res.Rows))
	}
	want := map[string][2]workload.Class{
		"bfs":           {workload.High, workload.High},
		"lud":           {workload.Medium, workload.Low},
		"nbody":         {workload.High, workload.Medium},
		"PF":            {workload.Low, workload.Low},
		"srad_v2":       {workload.High, workload.Medium},
		"hotspot":       {workload.Medium, workload.Low},
		"kmeans":        {workload.Medium, workload.Low},
		"streamcluster": {workload.Low, workload.Medium},
	}
	for _, row := range res.Rows {
		if w, ok := want[row.Workload]; ok {
			if row.CoreClass != w[0] || row.MemClass != w[1] {
				t.Errorf("%s: measured classes (%v,%v), want (%v,%v)",
					row.Workload, row.CoreClass, row.MemClass, w[0], w[1])
			}
		}
		if row.Workload == "QG" || row.Workload == "streamcluster" {
			if !row.Fluctuating {
				t.Errorf("%s should be flagged fluctuating", row.Workload)
			}
		}
	}
}

func TestStaticSweepOptimality(t *testing.T) {
	res, err := env.StaticSweep("kmeans", "hotspot")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]SweepRow{}
	for _, r := range res.Rows {
		rows[r.Workload] = r
	}
	km := rows["kmeans"]
	// Paper: optimum 15/85, converged 20/80. Band: optimum in [10,25],
	// converged within one step of it.
	if km.OptimalShare < 0.10 || km.OptimalShare > 0.25 {
		t.Errorf("kmeans optimal share %.0f%%, want 10-25%% (paper 15%%)", km.OptimalShare*100)
	}
	if math.Abs(km.ConvergedShare-km.OptimalShare) > 0.10+1e-9 {
		t.Errorf("kmeans converged %.0f%% too far from optimum %.0f%%", km.ConvergedShare*100, km.OptimalShare*100)
	}
	hs := rows["hotspot"]
	if math.Abs(hs.OptimalShare-0.50) > 0.051 {
		t.Errorf("hotspot optimal share %.0f%%, want ~50%%", hs.OptimalShare*100)
	}
	if math.Abs(hs.ConvergedShare-0.50) > 0.051 {
		t.Errorf("hotspot converged %.0f%%, want ~50%%", hs.ConvergedShare*100)
	}
	// Paper: dynamic division captures 99% of the max saving for hotspot
	// and costs 5.45% extra execution time. Accept ≥ 90% and ≤ 12%.
	if hs.SavingShare < 0.90 {
		t.Errorf("hotspot captured only %.1f%% of max saving (paper 99%%)", hs.SavingShare*100)
	}
	for _, r := range res.Rows {
		if r.ExecDeltaVsOptimal > 0.12 {
			t.Errorf("%s: dynamic exec +%.2f%% vs optimal, want <= 12%% (paper 5.45%%)", r.Workload, r.ExecDeltaVsOptimal*100)
		}
	}
}

func TestEnvHelpers(t *testing.T) {
	if _, err := env.Profile("nope"); err == nil {
		t.Error("missing profile accepted")
	}
	m := env.Machine()
	if m.GPU == nil || m.CPU == nil || m.Bus == nil {
		t.Error("machine incomplete")
	}
}

func TestFig5PowerTable(t *testing.T) {
	res, err := env.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	tab := res.PowerTable()
	if len(tab.Rows) == 0 {
		t.Fatal("power table empty")
	}
	if len(tab.Rows) < len(res.PowerScaled) {
		t.Errorf("power table truncated: %d rows for %d samples", len(tab.Rows), len(res.PowerScaled))
	}
	spark := res.Sparklines()
	for _, want := range []string{"core util", "mem MHz", "power"} {
		if !strings.Contains(spark, want) {
			t.Errorf("sparklines missing %q", want)
		}
	}
}

func TestNewEnvFromRejectsBadConfigs(t *testing.T) {
	gpu := env.GPU
	gpu.SMs = 0
	if _, err := NewEnvFrom(gpu, env.CPU, env.Bus); err == nil {
		t.Error("bad GPU config accepted")
	}
	cpu := env.CPU
	cpu.Cores = 0
	if _, err := NewEnvFrom(env.GPU, cpu, env.Bus); err == nil {
		t.Error("bad CPU config accepted")
	}
}

func TestDivisionSweepValidation(t *testing.T) {
	if _, err := env.DivisionSweep("kmeans", 0.5, 0.1, 0.1, 2); err == nil {
		t.Error("inverted sweep bounds accepted")
	}
	if _, err := env.DivisionSweep("kmeans", 0, 0.5, 0, 2); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := env.DivisionSweep("nope", 0, 0.5, 0.1, 2); err == nil {
		t.Error("missing workload accepted")
	}
}
