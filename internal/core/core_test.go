package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"greengpu/internal/cpusim"
	"greengpu/internal/division"
	"greengpu/internal/dvfs"
	"greengpu/internal/testbed"
	"greengpu/internal/units"
	"greengpu/internal/workload"
)

func profileByName(t *testing.T, name string) *workload.Profile {
	t.Helper()
	profiles, err := workload.Rodinia(testbed.GeForce8800GTX(), testbed.PhenomIIX2())
	if err != nil {
		t.Fatalf("Rodinia: %v", err)
	}
	p, err := workload.ByName(profiles, name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runMode(t *testing.T, name string, mode Mode, mut func(*Config)) *Result {
	t.Helper()
	p := profileByName(t, name)
	cfg := DefaultConfig(mode)
	if mut != nil {
		mut(&cfg)
	}
	res, err := Run(testbed.New(), p, cfg)
	if err != nil {
		t.Fatalf("Run(%s, %v): %v", name, mode, err)
	}
	checkResult(t, res)
	return res
}

// checkResult fails t unless r holds the invariants of every result: each
// iteration's wall time is the later of its two sides, and its energy
// splits exactly into the card's and the CPU side's; the wall times sum to
// TotalTime; the totals split exactly; and the iteration energies sum to
// Energy within len(Iterations)·2⁻⁵² relative, because each iteration's
// energy is a difference of meter snapshots. A totals-only result (nil
// Iterations) is held to the totals split alone.
func checkResult(t testing.TB, r *Result) {
	t.Helper()
	if r.EnergyGPU+r.EnergyCPU != r.Energy {
		t.Errorf("%s %v: EnergyGPU %v + EnergyCPU %v != Energy %v", r.Workload, r.Mode, r.EnergyGPU, r.EnergyCPU, r.Energy)
	}
	if r.Iterations == nil {
		return
	}
	var wall time.Duration
	var energy units.Energy
	for _, it := range r.Iterations {
		if it.WallTime != max(it.TC, it.TG) {
			t.Errorf("%s %v iteration %d: WallTime %v != max(TC %v, TG %v)", r.Workload, r.Mode, it.Index, it.WallTime, it.TC, it.TG)
		}
		if it.EnergyGPU+it.EnergyCPU != it.Energy {
			t.Errorf("%s %v iteration %d: EnergyGPU %v + EnergyCPU %v != Energy %v", r.Workload, r.Mode, it.Index, it.EnergyGPU, it.EnergyCPU, it.Energy)
		}
		wall += it.WallTime
		energy += it.Energy
	}
	if wall != r.TotalTime {
		t.Errorf("%s %v: iteration wall times sum to %v, TotalTime %v", r.Workload, r.Mode, wall, r.TotalTime)
	}
	if tol := float64(len(r.Iterations)) * 0x1p-52 * math.Abs(r.Energy.Joules()); math.Abs((energy - r.Energy).Joules()) > tol {
		t.Errorf("%s %v: iteration energies sum to %v, Energy %v (tolerance %g J)", r.Workload, r.Mode, energy, r.Energy, tol)
	}
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{
		Baseline:    "baseline",
		FreqScaling: "frequency-scaling",
		Division:    "division",
		Holistic:    "greengpu",
		Mode(42):    "Mode(42)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

// TestParseMode pins the one mode-name parser: every spelling a CLI, a
// spec or the daemon accepts, and each mode's String form round-trips.
func TestParseMode(t *testing.T) {
	for name, want := range map[string]Mode{
		"baseline":          Baseline,
		"frequency-scaling": FreqScaling,
		"freqscaling":       FreqScaling,
		"scaling":           FreqScaling,
		"division":          Division,
		"greengpu":          Holistic,
		"holistic":          Holistic,
	} {
		if got, err := ParseMode(name); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, m := range []Mode{Baseline, FreqScaling, Division, Holistic} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, bad := range []string{"", "warp", "Baseline", "Mode(0)"} {
		if _, err := ParseMode(bad); err == nil || err.Error() != fmt.Sprintf("unknown mode %q", bad) {
			t.Errorf("ParseMode(%q) error %v, want unknown mode", bad, err)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(Holistic)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	muts := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad mode", func(c *Config) { c.Mode = Mode(9) }},
		{"zero dvfs interval", func(c *Config) { c.DVFSInterval = 0 }},
		{"bad scaler", func(c *Config) { c.GPUScaler.Beta = 2 }},
		{"bad division", func(c *Config) { c.Division.Step = 0 }},
		{"negative iterations", func(c *Config) { c.Iterations = -1 }},
	}
	for _, m := range muts {
		c := DefaultConfig(Holistic)
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
	// Scaling parameters are irrelevant (and unchecked) for baseline mode.
	c := DefaultConfig(Baseline)
	c.DVFSInterval = 0
	if err := c.Validate(); err != nil {
		t.Errorf("baseline config rejected scaling params: %v", err)
	}
}

func TestBaselineRun(t *testing.T) {
	res := runMode(t, "kmeans", Baseline, func(c *Config) { c.Iterations = 3 })
	if len(res.Iterations) != 3 {
		t.Fatalf("iterations = %d, want 3", len(res.Iterations))
	}
	// All work on GPU: tc = 0 every iteration, ratio 0.
	for _, it := range res.Iterations {
		if it.R != 0 || it.TC != 0 {
			t.Errorf("iter %d: r=%v tc=%v, want all-GPU", it.Index, it.R, it.TC)
		}
		if it.CoreLevel != 5 || it.MemLevel != 5 || it.CPULevel != 3 {
			t.Errorf("iter %d: levels (%d,%d,%d), want peak (5,5,3)", it.Index, it.CoreLevel, it.MemLevel, it.CPULevel)
		}
	}
	// Iteration wall time ≈ profile's 120 s + transfer.
	w := res.Iterations[0].WallTime
	if w < 119*time.Second || w > 125*time.Second {
		t.Errorf("iteration wall time = %v, want ~120s", w)
	}
	if res.Energy <= 0 || res.EnergyGPU <= 0 || res.EnergyCPU <= 0 {
		t.Error("energy accounting missing")
	}
	if res.DVFSSteps != 0 {
		t.Errorf("baseline made %d DVFS steps", res.DVFSSteps)
	}
	// All-GPU runs spin the CPU the whole time.
	if res.SpinTime <= 0 {
		t.Error("baseline recorded no spin time despite synchronous waits")
	}
}

func TestFreqScalingSavesGPUEnergy(t *testing.T) {
	// Fig. 6a's headline: tier 2 alone saves GPU energy vs
	// best-performance with only marginal slowdown, here on the
	// memory-light lud workload.
	base := runMode(t, "lud", Baseline, func(c *Config) { c.Iterations = 4 })
	scaled := runMode(t, "lud", FreqScaling, func(c *Config) { c.Iterations = 4 })
	if scaled.EnergyGPU >= base.EnergyGPU {
		t.Errorf("frequency scaling saved no GPU energy: %v -> %v", base.EnergyGPU, scaled.EnergyGPU)
	}
	slowdown := float64(scaled.TotalTime-base.TotalTime) / float64(base.TotalTime)
	if slowdown > 0.10 {
		t.Errorf("slowdown %.1f%% exceeds 10%%", slowdown*100)
	}
	if scaled.DVFSSteps == 0 {
		t.Error("no DVFS steps recorded")
	}
}

func TestDivisionConvergesKmeans(t *testing.T) {
	// Fig. 7a: kmeans converges to 20/80 (CPU/GPU) from a 30% start.
	res := runMode(t, "kmeans", Division, nil)
	if math.Abs(res.FinalRatio-0.20) > 0.051 {
		t.Errorf("kmeans converged to %v, want ~0.20", res.FinalRatio)
	}
	if len(res.DivisionHistory) != len(res.Iterations) {
		t.Errorf("history %d entries, iterations %d", len(res.DivisionHistory), len(res.Iterations))
	}
	// Balanced: final iterations have similar tc and tg.
	last := res.Iterations[len(res.Iterations)-1]
	imbalance := math.Abs(float64(last.TC-last.TG)) / float64(last.WallTime)
	if imbalance > 0.25 {
		t.Errorf("final imbalance %.2f, want balanced sides", imbalance)
	}
}

func TestDivisionConvergesHotspot(t *testing.T) {
	// Fig. 7b: hotspot converges to 50/50.
	res := runMode(t, "hotspot", Division, nil)
	if math.Abs(res.FinalRatio-0.50) > 0.051 {
		t.Errorf("hotspot converged to %v, want ~0.50", res.FinalRatio)
	}
}

func TestDivisionConvergenceFromAnyStart(t *testing.T) {
	for _, init := range []float64{0.05, 0.50, 0.80} {
		res := runMode(t, "hotspot", Division, func(c *Config) {
			c.Division.Initial = init
		})
		if math.Abs(res.FinalRatio-0.50) > 0.051 {
			t.Errorf("start %v: converged to %v, want ~0.50", init, res.FinalRatio)
		}
	}
}

func TestDivisionBeatsBaselineEnergy(t *testing.T) {
	// The motivation case study (Fig. 2): cooperating beats GPU-only.
	base := runMode(t, "kmeans", Baseline, func(c *Config) { c.Iterations = 8 })
	div := runMode(t, "kmeans", Division, func(c *Config) { c.Iterations = 8 })
	if div.Energy >= base.Energy {
		t.Errorf("division saved no energy: baseline %v, division %v", base.Energy, div.Energy)
	}
	if div.TotalTime >= base.TotalTime {
		t.Errorf("division did not shorten the run: %v vs %v", div.TotalTime, base.TotalTime)
	}
}

func TestHolisticBeatsBothSingleTiers(t *testing.T) {
	// Fig. 8: GreenGPU outperforms division-only and frequency-scaling-
	// only on hotspot.
	iters := func(c *Config) { c.Iterations = 12 }
	hol := runMode(t, "hotspot", Holistic, iters)
	div := runMode(t, "hotspot", Division, iters)
	fs := runMode(t, "hotspot", FreqScaling, iters)
	if hol.Energy >= div.Energy {
		t.Errorf("holistic (%v) not better than division-only (%v)", hol.Energy, div.Energy)
	}
	if hol.Energy >= fs.Energy {
		t.Errorf("holistic (%v) not better than frequency-scaling-only (%v)", hol.Energy, fs.Energy)
	}
}

func TestHolisticSavesVsBaseline(t *testing.T) {
	// §VII-C: GreenGPU saves 21.04% on average vs the Rodinia default
	// configuration across kmeans and hotspot. We assert each workload
	// saves meaningfully (> 5%) and the average lands in the paper's
	// neighbourhood (> 15%).
	var savings []float64
	for _, name := range []string{"kmeans", "hotspot"} {
		base := runMode(t, name, Baseline, nil)
		hol := runMode(t, name, Holistic, nil)
		saving := 1 - float64(hol.Energy)/float64(base.Energy)
		if saving < 0.05 {
			t.Errorf("%s: holistic saving %.1f%%, want > 5%%", name, saving*100)
		}
		savings = append(savings, saving)
	}
	avg := (savings[0] + savings[1]) / 2
	if avg < 0.15 {
		t.Errorf("average holistic saving %.1f%%, want > 15%% (paper: 21.04%%)", avg*100)
	}
}

func TestIterationStatsConsistency(t *testing.T) {
	res := runMode(t, "hotspot", Holistic, func(c *Config) { c.Iterations = 5 })
	var sumE float64
	for _, it := range res.Iterations {
		if it.WallTime < it.TC || it.WallTime < it.TG {
			t.Errorf("iter %d: wall %v < max(tc %v, tg %v)", it.Index, it.WallTime, it.TC, it.TG)
		}
		if math.Abs(float64(it.Energy-(it.EnergyGPU+it.EnergyCPU))) > 1e-6 {
			t.Errorf("iter %d: energy split inconsistent", it.Index)
		}
		sumE += float64(it.Energy)
	}
	// Iteration energies sum to the run total (no gaps between iterations).
	if math.Abs(sumE-float64(res.Energy)) > 1e-3*float64(res.Energy) {
		t.Errorf("iteration energies sum %.1f != total %.1f", sumE, float64(res.Energy))
	}
}

func TestObserverCallbacks(t *testing.T) {
	dvfsCalls, govCalls, iterCalls := 0, 0, 0
	runMode(t, "hotspot", Holistic, func(c *Config) {
		c.Iterations = 3
		c.OnDVFS = func(_ time.Duration, _, _ float64, _ dvfs.Decision) { dvfsCalls++ }
		c.OnCPUGovernor = func(_ time.Duration, _ float64, _ int) { govCalls++ }
		c.OnIteration = func(_ IterationStats) { iterCalls++ }
	})
	if dvfsCalls == 0 {
		t.Error("OnDVFS never fired")
	}
	if govCalls == 0 {
		t.Error("OnCPUGovernor never fired")
	}
	if iterCalls != 3 {
		t.Errorf("OnIteration fired %d times, want 3", iterCalls)
	}
}

func TestRunOnBusyMachinePanics(t *testing.T) {
	m := testbed.New()
	p := profileByName(t, "hotspot")
	cfg := DefaultConfig(Baseline)
	cfg.Iterations = 1
	// Occupy the CPU.
	m.CPU.Run(&cpusim.Job{Name: "hog", Ops: 1e12})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(m, p, cfg)
}

func TestInvalidConfigReturnsError(t *testing.T) {
	m := testbed.New()
	p := profileByName(t, "hotspot")
	cfg := DefaultConfig(Holistic)
	cfg.Division.Step = -1
	if _, err := Run(m, p, cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSpinWaitDisabled(t *testing.T) {
	res := runMode(t, "lud", Baseline, func(c *Config) {
		c.Iterations = 2
		c.SpinWait = false
	})
	if res.SpinTime != 0 {
		t.Errorf("SpinTime = %v with SpinWait disabled", res.SpinTime)
	}
}

func TestEmulatedEnergyCPUThrottled(t *testing.T) {
	res := runMode(t, "lud", Baseline, func(c *Config) { c.Iterations = 2 })
	m := testbed.New()
	idle := m.CPU.IdlePowerAt(0)
	emulated := res.EmulatedEnergyCPUThrottled(idle)
	if emulated >= res.Energy {
		t.Errorf("emulation did not reduce energy: %v -> %v", res.Energy, emulated)
	}
	// Sanity: replaced energy equals spin accounting.
	want := res.Energy - res.SpinEnergy + idle.Over(res.SpinTime)
	if math.Abs(float64(emulated-want)) > 1e-9 {
		t.Errorf("emulated = %v, want %v", emulated, want)
	}
}

func TestAveragePower(t *testing.T) {
	res := runMode(t, "lud", Baseline, func(c *Config) { c.Iterations = 2 })
	want := res.Energy.Div(res.TotalTime)
	if res.AveragePower() != want {
		t.Errorf("AveragePower = %v, want %v", res.AveragePower(), want)
	}
}

func TestOscillationSafeguardEngagesOnTestbed(t *testing.T) {
	// Force a workload whose balance point falls between grid points and
	// check the safeguard holds the ratio (no sustained flip-flop).
	p := profileByName(t, "kmeans")
	cfg := DefaultConfig(Division)
	cfg.Iterations = 20
	res, err := Run(testbed.New(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	for i := len(res.Iterations) - 6; i < len(res.Iterations)-1; i++ {
		if res.Iterations[i].R != res.Iterations[i+1].R {
			flips++
		}
	}
	if flips > 2 {
		t.Errorf("division ratio still flapping at end of run (%d flips in last 6 iters)", flips)
	}
}

func TestActuatorFilterApplied(t *testing.T) {
	// Pin the memory actuator at its boot level; the run must proceed
	// and the enforced memory level must never leave 0.
	p := profileByName(t, "lud")
	cfg := DefaultConfig(FreqScaling)
	cfg.Iterations = 4
	cfg.ActuatorFilter = func(d dvfs.Decision) dvfs.Decision {
		d.MemLevel = 0
		return d
	}
	res, err := Run(testbed.New(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Iterations {
		if it.MemLevel != 0 {
			t.Errorf("iteration %d: mem level %d escaped the stuck actuator", it.Index, it.MemLevel)
		}
	}
}

func TestActuatorFilterOutOfRangeClamped(t *testing.T) {
	p := profileByName(t, "lud")
	cfg := DefaultConfig(FreqScaling)
	cfg.Iterations = 2
	cfg.ActuatorFilter = func(d dvfs.Decision) dvfs.Decision {
		return dvfs.Decision{CoreLevel: 99, MemLevel: -7}
	}
	// Must not panic: the framework clamps hostile filter output.
	if _, err := Run(testbed.New(), p, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDivisionPolicyOverride(t *testing.T) {
	// Plug the Qilin adaptive mapper into the framework; it must reach
	// the same balance point as the step heuristic.
	p := profileByName(t, "hotspot")
	cfg := DefaultConfig(Division)
	cfg.DivisionPolicy = division.NewQilin(division.DefaultQilinConfig())
	res, err := Run(testbed.New(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.FinalRatio-0.50) > 0.02 {
		t.Errorf("qilin converged to %v, want ~0.50", res.FinalRatio)
	}
	if len(res.DivisionHistory) != len(res.Iterations) {
		t.Errorf("policy history %d entries, iterations %d", len(res.DivisionHistory), len(res.Iterations))
	}
}

func TestDivisionPolicySkipsConfigValidation(t *testing.T) {
	// An explicit policy makes cfg.Division irrelevant; a bogus Division
	// config must not block the run.
	p := profileByName(t, "hotspot")
	cfg := DefaultConfig(Division)
	cfg.Division.Step = -1 // invalid, but unused
	cfg.DivisionPolicy = division.NewQilin(division.DefaultQilinConfig())
	cfg.Iterations = 3
	if _, err := Run(testbed.New(), p, cfg); err != nil {
		t.Fatalf("policy override still validated unused config: %v", err)
	}
}

func TestMetersMatchAnalyticEnergyUnderDVFS(t *testing.T) {
	// Cross-module physics check: the Wattsup-style 1 Hz sampled meters
	// must agree with the simulator's exact analytic energy integrals to
	// within sampling error, across a full holistic run with live
	// frequency transitions on both devices.
	m := testbed.New()
	p := profileByName(t, "hotspot")
	m.StartMeters()
	cfg := DefaultConfig(Holistic)
	cfg.Iterations = 6
	res, err := Run(m, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.StopMeters()

	sampledGPU := m.MeterGPU.Energy()
	if rel := math.Abs(float64(sampledGPU-res.EnergyGPU)) / float64(res.EnergyGPU); rel > 0.02 {
		t.Errorf("GPU meter off by %.2f%% from analytic energy", rel*100)
	}
	sampledCPU := m.MeterCPU.Energy()
	if rel := math.Abs(float64(sampledCPU-res.EnergyCPU)) / float64(res.EnergyCPU); rel > 0.02 {
		t.Errorf("CPU meter off by %.2f%% from analytic energy", rel*100)
	}
}

func TestSingleIterationRun(t *testing.T) {
	res := runMode(t, "PF", Holistic, func(c *Config) { c.Iterations = 1 })
	if len(res.Iterations) != 1 {
		t.Fatalf("iterations = %d", len(res.Iterations))
	}
	if res.Energy <= 0 {
		t.Error("no energy accounted")
	}
}

func TestDivisionBoundsRespectedInHolistic(t *testing.T) {
	res := runMode(t, "kmeans", Holistic, func(c *Config) {
		c.Division.Min = 0.10
		c.Division.Max = 0.15
		c.Division.Initial = 0.10
	})
	for _, it := range res.Iterations {
		if it.R < 0.10-1e-9 || it.R > 0.15+1e-9 {
			t.Errorf("iteration %d ratio %v escaped [0.10, 0.15]", it.Index, it.R)
		}
	}
}

func TestLongRunStability(t *testing.T) {
	// Soak test: 200 iterations of the holistic framework. The division
	// ratio must stay at its converged point, per-iteration energy must
	// be flat in steady state, and the WMA weight table must not
	// degenerate (decisions keep being made).
	res := runMode(t, "hotspot", Holistic, func(c *Config) { c.Iterations = 200 })
	if len(res.Iterations) != 200 {
		t.Fatalf("ran %d iterations", len(res.Iterations))
	}
	tail := res.Iterations[100:]
	first := tail[0]
	for _, it := range tail {
		if it.R != first.R {
			t.Fatalf("ratio moved in steady state: %v -> %v at iteration %d", first.R, it.R, it.Index)
		}
		if rel := math.Abs(float64(it.Energy-first.Energy)) / float64(first.Energy); rel > 0.01 {
			t.Fatalf("iteration energy drifted %.2f%% at iteration %d", rel*100, it.Index)
		}
	}
	if res.DVFSSteps < 1000 {
		t.Errorf("DVFS made only %d decisions over 200 iterations", res.DVFSSteps)
	}
}
