package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"greengpu/internal/cpusim"
	"greengpu/internal/division"
	"greengpu/internal/dvfs"
	"greengpu/internal/faultinject"
	"greengpu/internal/gpusim"
	"greengpu/internal/sim"
	"greengpu/internal/testbed"
	"greengpu/internal/units"
	"greengpu/internal/workload"
)

// closedFormTables builds the testbed's device tables.
func closedFormTables(t testing.TB) (*gpusim.Tables, *cpusim.Tables) {
	t.Helper()
	gt, err := gpusim.BuildTables(testbed.GeForce8800GTX())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := cpusim.BuildTables(testbed.PhenomIIX2())
	if err != nil {
		t.Fatal(err)
	}
	return gt, ct
}

// sameTotals reports whether got carries want's totals, bit for bit.
func sameTotals(got, want *Result) bool {
	bits := func(e units.Energy) uint64 { return math.Float64bits(float64(e)) }
	return got.TotalTime == want.TotalTime &&
		bits(got.Energy) == bits(want.Energy) &&
		bits(got.EnergyGPU) == bits(want.EnergyGPU) &&
		bits(got.EnergyCPU) == bits(want.EnergyCPU) &&
		got.SpinTime == want.SpinTime &&
		bits(got.SpinEnergy) == bits(want.SpinEnergy)
}

// FuzzClosedForm is the closed form's differential oracle: it holds
// ClosedForm to Run on a fresh testbed. The workload is one of the nine
// testbed profiles or one calibrated from fuzzed phases (fuzzProfile), whose
// iteration time reaches the clock's saturation range. One baseline point is
// evaluated at fuzzed levels (an index one past its ladder is out of range),
// iteration count and SpinWait. Admits must resolve Run's iteration count
// and accept exactly when the closed form applies: at most maxClosedPhases
// phases, and a run that ends before sim.MaxTime even at the slowest ladder
// corner. Where it accepts, the form's Run must fail exactly when Run does,
// with the same error, and otherwise reflect.DeepEqual it; Totals must store
// Run's totals bit for bit and no records. Both paths' results hold
// checkResult's invariants.
func FuzzClosedForm(f *testing.F) {
	// TestRunSaturationStaysFast's profile: 4 × 2.4e9 s saturates the
	// clock inside the final iteration; at 6 iterations later bus
	// transfers are scheduled past the horizon and saturate too.
	f.Add(uint8(9), []byte{0, 178, 51}, 2.4e9, uint16(4), uint8(5), uint8(5), uint8(3), true)
	f.Add(uint8(9), []byte{0, 178, 51}, 2.4e9, uint16(4), uint8(0), uint8(0), uint8(3), true)
	f.Add(uint8(9), []byte{0, 178, 51}, 2.4e9, uint16(6), uint8(5), uint8(5), uint8(3), true)
	// Seventeen phases: one more than the closed-form loop holds.
	seventeen := make([]byte, 17*3)
	for i := range seventeen {
		seventeen[i] = byte(i * 37)
	}
	f.Add(uint8(9), seventeen, 30.0, uint16(4), uint8(2), uint8(3), uint8(3), true)
	// Ordinary testbed-scale points, and a long run near the horizon.
	f.Add(uint8(9), []byte{10, 200, 40, 90, 60, 220}, 24.0, uint16(0), uint8(5), uint8(1), uint8(0), false)
	f.Add(uint8(9), []byte{255, 255, 255}, 1e-3, uint16(1), uint8(3), uint8(4), uint8(2), true)
	f.Add(uint8(9), []byte{1, 128, 128}, 9e7, uint16(99), uint8(0), uint8(0), uint8(1), true)
	// The nine testbed workloads, at their default iteration count and
	// others; the last two start one past the core and the CPU ladder.
	for k := range 9 {
		f.Add(uint8(k), []byte{}, 0.0, uint16(k*5), uint8(k%6), uint8(5-k%6), uint8(k%4), k%3 != 0)
	}
	f.Add(uint8(2), []byte{}, 0.0, uint16(3), uint8(6), uint8(2), uint8(1), true)
	f.Add(uint8(7), []byte{}, 0.0, uint16(3), uint8(1), uint8(2), uint8(4), false)

	gpu, cpu, bus := testbed.GeForce8800GTX(), testbed.PhenomIIX2(), testbed.PCIe()
	profiles, err := workload.Rodinia(gpu, cpu)
	if err != nil {
		f.Fatal(err)
	}
	gt, ct := closedFormTables(f)
	f.Fuzz(func(t *testing.T, which uint8, phaseBytes []byte, iterSeconds float64, iters uint16, c, m, p uint8, spin bool) {
		prof := fuzzProfile(t, gpu, cpu, gt, profiles, which, phaseBytes, iterSeconds)
		cfg := DefaultConfig(Baseline)
		cfg.Iterations = int(iters % 100)
		cfg.SpinWait = spin
		cfg.InitialLevels = &Levels{
			Core: int(c) % (len(gpu.CoreLevels) + 1),
			Mem:  int(m) % (len(gpu.MemLevels) + 1),
			CPU:  int(p) % (len(cpu.PStates) + 1),
		}
		want, wantErr := Run(testbed.NewFrom(gpu, cpu, bus), prof, cfg)

		// The slowest ladder corner's iteration span, measured by the
		// event path: ladders ascend, so level (0, 0) is slowest, and the
		// CPU, which has no work, does not set the span.
		slow := cfg
		slow.Iterations = 1
		slow.InitialLevels = &Levels{}
		r0, err := Run(testbed.NewFrom(gpu, cpu, bus), prof, slow)
		if err != nil {
			t.Fatalf("slowest-corner run: %v", err)
		}
		runIters := max(prof.Iterations, 1)
		if cfg.Iterations > 0 {
			runIters = cfg.Iterations
		}
		span := r0.TotalTime
		applies := len(prof.Phases) <= maxClosedPhases &&
			(span == 0 || (span < sim.MaxTime && time.Duration(runIters) <= (sim.MaxTime-1)/span))

		cf := NewClosedForm(prof, gt, ct, &bus)
		n, ok := cf.Admits(&cfg)
		if n != runIters || ok != applies {
			t.Fatalf("Admits = %d, %v; want %d, %v (phases %d, span %v)", n, ok, runIters, applies, len(prof.Phases), span)
		}
		if !ok {
			return
		}
		got, err := cf.Run(&cfg, n)
		var totals Result
		totalsErr := cf.Totals(&cfg, n, &totals)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() || totalsErr == nil || totalsErr.Error() != wantErr.Error() {
				t.Fatalf("closed form errors %v and %v, Run error %v", err, totalsErr, wantErr)
			}
			return
		}
		if err != nil || totalsErr != nil {
			t.Fatalf("closed form errors %v and %v, Run succeeded", err, totalsErr)
		}
		checkResult(t, want)
		checkResult(t, got)
		checkResult(t, &totals)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("closed form diverges from Run\n got %+v\nwant %+v", got, want)
		}
		if !sameTotals(&totals, want) || totals.Iterations != nil {
			t.Fatalf("Totals diverge from Run's totals\n got %+v\nwant %+v", totals, want)
		}
	})
}

// TestClosedFormCoversConfigFields is the field guard of the closed-form
// rule (Config.closedFormEligible). Every Config field is in one of three
// classes — a clause of the rule, a field the closed form reads, or a field
// a baseline run never reads — and a new field fails here until it is
// classified, so no field that changes a run can take the closed form
// unnoticed. The classes are checked, not only listed: each rule field, set
// on a baseline ladder point, makes Admits refuse it, and each never-read
// field, set on the same point, leaves it admitted with Run's result.
func TestClosedFormCoversConfigFields(t *testing.T) {
	ratio, plan := 0.25, faultinject.Default(7)
	rule := map[string]func(*Config){
		"Mode":           func(c *Config) { c.Mode = FreqScaling },
		"StaticRatio":    func(c *Config) { c.StaticRatio = &ratio },
		"FaultPlan":      func(c *Config) { c.FaultPlan = &plan },
		"ActuatorFilter": func(c *Config) { c.ActuatorFilter = func(d dvfs.Decision) dvfs.Decision { return d } },
		"DivisionPolicy": func(c *Config) { c.DivisionPolicy = division.NewQilin(division.DefaultQilinConfig()) },
		"OnDVFS":         func(c *Config) { c.OnDVFS = func(time.Duration, float64, float64, dvfs.Decision) {} },
		"OnCPUGovernor":  func(c *Config) { c.OnCPUGovernor = func(time.Duration, float64, int) {} },
		"OnIteration":    func(c *Config) { c.OnIteration = func(IterationStats) {} },
	}
	// The closed form's own inputs, covered by FuzzClosedForm.
	read := []string{"Iterations", "SpinWait", "InitialLevels"}
	neverRead := map[string]func(*Config){
		"DVFSInterval": func(c *Config) { c.DVFSInterval = time.Second },
		"GPUScaler":    func(c *Config) { c.GPUScaler.Beta = 0.5 },
		"Fixed8Scaler": func(c *Config) { c.Fixed8Scaler = true },
		"SMScaling":    func(c *Config) { c.SMScaling = true },
		"Division":     func(c *Config) { c.Division.Initial = 0.5 },
	}
	classes := map[string]int{}
	for name := range rule {
		classes[name]++
	}
	for _, name := range read {
		classes[name]++
	}
	for name := range neverRead {
		classes[name]++
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if classes[name] != 1 {
			t.Errorf("Config.%s is in %d of the closed-form rule's field classes, want exactly 1: classify it here and, if it can change a baseline run, add it to the rule", name, classes[name])
		}
		delete(classes, name)
	}
	for name := range classes {
		t.Errorf("classified field %s is not in Config", name)
	}

	gpu, cpu, bus := testbed.GeForce8800GTX(), testbed.PhenomIIX2(), testbed.PCIe()
	gt, ct := closedFormTables(t)
	prof := profileByName(t, "kmeans")
	cf := NewClosedForm(prof, gt, ct, &bus)
	point := func(set func(*Config)) Config {
		cfg := DefaultConfig(Baseline)
		cfg.Iterations = 3
		cfg.InitialLevels = &Levels{Core: 2, Mem: 3, CPU: len(cpu.PStates) - 1}
		set(&cfg)
		return cfg
	}
	for name, set := range rule {
		cfg := point(set)
		if _, ok := cf.Admits(&cfg); ok {
			t.Errorf("rule field %s set: the closed form admits the point; want the event path", name)
		}
	}
	for name, set := range neverRead {
		cfg := point(set)
		iters, ok := cf.Admits(&cfg)
		if !ok {
			t.Errorf("never-read field %s set: the closed form refuses the point", name)
			continue
		}
		got, err := cf.Run(&cfg, iters)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(testbed.NewFrom(gpu, cpu, bus), prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("never-read field %s set: closed form diverges from Run:\n got %+v\nwant %+v", name, got, want)
		}
	}
}
