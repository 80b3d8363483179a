package sweep

import (
	"reflect"
	"testing"
	"time"

	"greengpu/internal/core"
	"greengpu/internal/gpusim"
	"greengpu/internal/runcache"
	"greengpu/internal/sim"
	"greengpu/internal/testbed"
	"greengpu/internal/workload"
)

// FuzzSweepSpec drives ParseSpec with arbitrary input: parsing must never
// panic, accepted specs must validate, and expansion against a fixed
// engine must be deterministic across calls.
func FuzzSweepSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"workloads=all core=all mem=all cpu=peak iters=4",
		"workloads=kmeans,nbody core=0-2 mem=1,3,5 cpu=0 mode=holistic",
		"draws=8 seed=2012 mode=scaling",
		"core=0-99999999999",
		"core=2-0 bogus==x",
		"draws=1000000",
		"core=all mem=all iters=100000000",
	} {
		f.Add(seed)
	}
	e := testEngine(f)
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("ParseSpec(%q) accepted a spec that fails Validate: %v", s, verr)
		}
		a, errA := e.Plan(spec)
		b, errB := e.Plan(spec)
		if (errA == nil) != (errB == nil) || !reflect.DeepEqual(a.Points, b.Points) {
			t.Fatalf("Plan(%q) is not deterministic", s)
		}
	})
}

// FuzzFastVsCore is the closed form's differential oracle. It calibrates a
// profile from fuzzed phases — one to twenty, three bytes each: work
// weight, core and memory utilization — and a fuzzed iteration time that
// reaches the clock's saturation range, then evaluates one baseline point
// at fuzzed levels, iteration count and SpinWait. Batch.Eval must
// reflect.DeepEqual core.Run on a fresh testbed, and must take the closed
// form exactly when it applies: at most maxPhases phases, and a run that
// ends before sim.MaxTime even at the slowest ladder corner. The Fast flag
// must be the same without a run cache, on a cold cache and on a warm one.
// The point Run evaluates when no cache keeps it — the totals-only closed
// form where it applies — must fail exactly when core.Run does, return
// core.Run's totals bit for bit, and carry the same Fast flag.
func FuzzFastVsCore(f *testing.F) {
	// TestRunSaturationStaysFast's profile: 4 × 2.4e9 s saturates the
	// clock inside the final iteration; at 6 iterations later bus
	// transfers are scheduled past the horizon and saturate too.
	f.Add([]byte{0, 178, 51}, 2.4e9, uint16(4), uint8(5), uint8(5), uint8(3), true)
	f.Add([]byte{0, 178, 51}, 2.4e9, uint16(4), uint8(0), uint8(0), uint8(3), true)
	f.Add([]byte{0, 178, 51}, 2.4e9, uint16(6), uint8(5), uint8(5), uint8(3), true)
	// Seventeen phases: one more than the closed-form loop holds.
	seventeen := make([]byte, 17*3)
	for i := range seventeen {
		seventeen[i] = byte(i * 37)
	}
	f.Add(seventeen, 30.0, uint16(4), uint8(2), uint8(3), uint8(3), true)
	// Ordinary testbed-scale points, and a long run near the horizon.
	f.Add([]byte{10, 200, 40, 90, 60, 220}, 24.0, uint16(0), uint8(5), uint8(1), uint8(0), false)
	f.Add([]byte{255, 255, 255}, 1e-3, uint16(1), uint8(3), uint8(4), uint8(2), true)
	f.Add([]byte{1, 128, 128}, 9e7, uint16(99), uint8(0), uint8(0), uint8(1), true)

	gpu, cpu, bus := testbed.GeForce8800GTX(), testbed.PhenomIIX2(), testbed.PCIe()
	gt, err := gpusim.BuildTables(gpu)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, phaseBytes []byte, iterSeconds float64, iters uint16, c, m, p uint8, spin bool) {
		if !(iterSeconds > 0 && iterSeconds <= 1e11) {
			t.Skip("iteration time outside (0, 1e11] s")
		}
		n := min(max(len(phaseBytes)/3, 1), 20)
		pb := make([]byte, 3*n) // zero-padded copy: the input is read-only
		copy(pb, phaseBytes)
		spec := workload.Spec{
			Name:             "fuzz",
			IterationSeconds: iterSeconds,
			Iterations:       4,
			Phases:           make([]workload.PhaseTarget, n),
			CPUSlowdown:      5,
			TransferMB:       1,
		}
		total := 0.0
		for i := range spec.Phases {
			total += 1 + float64(pb[3*i])
		}
		for i := range spec.Phases {
			uc := float64(pb[3*i+1]) / 255
			um := float64(pb[3*i+2]) / 255
			// Scale infeasible targets into the calibration's feasible
			// region, max + γ·min ≤ 1, with a little headroom.
			if k := (max(uc, um) + gpu.OverlapGamma*min(uc, um)) * (1 + 1e-6); k > 1 {
				uc, um = uc/k, um/k
			}
			spec.Phases[i] = workload.PhaseTarget{
				Fraction: (1 + float64(pb[3*i])) / total,
				CoreUtil: uc,
				MemUtil:  um,
			}
		}
		prof, err := workload.Calibrate(spec, gpu, cpu)
		if err != nil {
			t.Skip(err)
		}
		// Keep to profiles the simulator represents: every phase, even at
		// the slowest ladder corner, must fit the clock's range on its
		// own, or both paths overflow its duration conversions. Only the
		// accumulated iterations of a run may reach sim.MaxTime.
		for _, ph := range prof.Phases {
			u := workload.UnitsPerIteration * ph.Fraction
			tc := ph.OpsPerUnit * u / gt.CoreDenom[0]
			tm := ph.BytesPerUnit * u / gt.MemDenom[0]
			if max(tc, tm, ph.StallPerUnit*u)+gpu.OverlapGamma*min(tc, tm) >= 0.99*sim.MaxTime.Seconds() {
				t.Skip("a phase at the slowest ladder corner outruns the clock")
			}
		}

		cfg := core.DefaultConfig(core.Baseline)
		cfg.Iterations = int(iters % 100)
		cfg.SpinWait = spin
		cfg.InitialLevels = &core.Levels{
			Core: int(c) % len(gpu.CoreLevels),
			Mem:  int(m) % len(gpu.MemLevels),
			CPU:  int(p) % len(cpu.PStates),
		}
		want, wantErr := core.Run(testbed.NewFrom(gpu, cpu, bus), prof, cfg)

		// The slowest ladder corner's iteration span, measured by the
		// per-point engine: ladders ascend, so level (0, 0) is slowest.
		slow := cfg
		slow.Iterations = 1
		slow.InitialLevels = &core.Levels{Core: 0, Mem: 0, CPU: cfg.InitialLevels.CPU}
		r0, err := core.Run(testbed.NewFrom(gpu, cpu, bus), prof, slow)
		if err != nil {
			t.Fatalf("slowest-corner run: %v", err)
		}
		runIters := prof.Iterations
		if cfg.Iterations > 0 {
			runIters = cfg.Iterations
		}
		span := r0.TotalTime
		applies := n <= maxPhases &&
			(span == 0 || (span < sim.MaxTime && time.Duration(runIters) <= (sim.MaxTime-1)/span))

		var fastSeen []bool
		for _, cached := range []bool{false, true, true} {
			e := &Engine{GPU: gpu, CPU: cpu, Bus: bus, Profiles: []*workload.Profile{prof}, Jobs: 1}
			if cached {
				cache, err := runcache.New(runcache.Options{})
				if err != nil {
					t.Fatal(err)
				}
				e.Cache = cache
			}
			b, err := e.NewBatch()
			if err != nil {
				t.Fatal(err)
			}
			evals := 1
			if cached {
				evals = 2 // cold, then warm
			}
			for i := 0; i < evals; i++ {
				got, fast, err := b.Eval("fuzz", cfg)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("Eval error %v, core.Run error %v", err, wantErr)
				}
				if err == nil && !reflect.DeepEqual(got, want) {
					t.Fatalf("Eval diverges from core.Run (fast=%v)\n got %+v\nwant %+v", fast, got, want)
				}
				fastSeen = append(fastSeen, fast)
			}
		}
		e := &Engine{GPU: gpu, CPU: cpu, Bus: bus, Profiles: []*workload.Profile{prof}, Jobs: 1}
		b, err := e.NewBatch()
		if err != nil {
			t.Fatal(err)
		}
		lv := cfg.InitialLevels
		pr, err := b.evalPoint(&Spec{}, &cfg, fastEligible(&cfg),
			Point{Workload: "fuzz", Draw: -1, Core: lv.Core, Mem: lv.Mem, CPU: lv.CPU})
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("evalPoint error %v, core.Run error %v", err, wantErr)
		}
		if err == nil && !sameTotals(pr, want) {
			t.Fatalf("evalPoint totals diverge from core.Run (fast=%v)\n got %+v\nwant %+v", pr.Fast, pr, want)
		}
		fastSeen = append(fastSeen, pr.Fast)
		for i, fast := range fastSeen {
			if fast != applies {
				t.Fatalf("evaluation %d: Fast=%v, closed form applies=%v (phases %d, span %v, iterations %d)",
					i, fast, applies, n, span, runIters)
			}
		}
	})
}
