package core

import (
	"reflect"
	"testing"
	"time"

	"greengpu/internal/cpusim"
	"greengpu/internal/gpusim"
	"greengpu/internal/sim"
	"greengpu/internal/testbed"
	"greengpu/internal/workload"
)

// FuzzGovernorSkip is the differential oracle for the governor's idle-tick
// skip. It runs one scaling or holistic point twice, plainly and with a
// no-op OnCPUGovernor hook, which makes the governor tick on every period,
// and requires reflect.DeepEqual results. The point is fuzzed over the
// workload (one of the nine testbed profiles, or fuzzed phases, as
// fuzzProfile builds them), SpinWait, the start levels, one to six
// iterations and the DVFS period: at least 1 ms, shorter or longer than
// GovernorInterval, a multiple of it or not. Points whose every-tick run
// would take more than about 10^5 ticks of the shorter period are skipped.
func FuzzGovernorSkip(f *testing.F) {
	const s = uint64(time.Second)
	// Spin-wait off: ondemand steps down, so not every tick is a no-op.
	f.Add(uint8(0), []byte{}, 0.0, true, false, uint8(0), uint8(0), uint8(3), uint8(3), 3*s)
	// Scaling and holistic points at odd start levels.
	for p := range 4 {
		f.Add(uint8(p+1), []byte{}, 0.0, p%2 == 0, true, uint8(p), uint8(2*p), uint8(p), uint8(2), 3*s)
	}
	// A DVFS period shorter than the governor's, one that is not a
	// multiple of it, and one equal to it, so that every governor tick
	// falls at the instant of a DVFS tick.
	f.Add(uint8(5), []byte{}, 0.0, true, true, uint8(5), uint8(5), uint8(0), uint8(4), 3*s/10)
	f.Add(uint8(6), []byte{}, 0.0, true, false, uint8(1), uint8(4), uint8(2), uint8(3), 37*s/10)
	f.Add(uint8(7), []byte{}, 0.0, true, true, uint8(3), uint8(1), uint8(1), uint8(3), s)
	// A fuzzed profile.
	f.Add(uint8(9), []byte{10, 200, 40, 90, 60, 220}, 24.0, false, false, uint8(2), uint8(1), uint8(0), uint8(1), s)

	gpu, cpu, bus := testbed.GeForce8800GTX(), testbed.PhenomIIX2(), testbed.PCIe()
	profiles, err := workload.Rodinia(gpu, cpu)
	if err != nil {
		f.Fatal(err)
	}
	gt, err := gpusim.BuildTables(gpu)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, which uint8, phaseBytes []byte, iterSeconds float64, holistic bool,
		spin bool, c, m, p, iters uint8, dvfsNs uint64) {
		prof := fuzzProfile(t, gpu, cpu, gt, profiles, which, phaseBytes, iterSeconds)
		cfg := DefaultConfig(FreqScaling)
		if holistic {
			cfg = DefaultConfig(Holistic)
		}
		cfg.DVFSInterval = time.Duration(min(max(dvfsNs, uint64(time.Millisecond)), uint64(sim.MaxTime)))
		cfg.SpinWait = spin
		cfg.Iterations = int(iters%6) + 1
		cfg.InitialLevels = &Levels{
			Core: int(c) % len(gpu.CoreLevels),
			Mem:  int(m) % len(gpu.MemLevels),
			CPU:  int(p) % len(cpu.PStates),
		}

		// Bound the every-tick run: no iteration outlasts the slower of
		// all work on the GPU at its slowest corner and all work on the
		// CPU at its lowest P-state, both measured tick-free in baseline
		// mode; twice that covers the bus traffic of a repartition.
		span := func(ratio float64) float64 {
			b := DefaultConfig(Baseline)
			b.Iterations, b.SpinWait, b.StaticRatio = 1, spin, &ratio
			b.InitialLevels = &Levels{}
			r, err := Run(testbed.NewFrom(gpu, cpu, bus), prof, b)
			if err != nil {
				t.Fatalf("span run: %v", err)
			}
			return r.TotalTime.Seconds()
		}
		runSeconds := min(2*float64(cfg.Iterations)*max(span(0), span(1)), sim.MaxTime.Seconds())
		if runSeconds/min(GovernorInterval, cfg.DVFSInterval).Seconds() > 1e5 {
			t.Skip("more than about 1e5 ticks of the shorter period")
		}

		got, gotErr := Run(testbed.NewFrom(gpu, cpu, bus), prof, cfg)
		every := cfg
		every.OnCPUGovernor = func(time.Duration, float64, int) {}
		want, wantErr := Run(testbed.NewFrom(gpu, cpu, bus), prof, every)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("skipping run error %v, every-tick run error %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("skipping run diverges from the every-tick run\n got %+v\nwant %+v", got, want)
		}
	})
}

// fuzzProfile returns testbed profile which%10, or for 9 a profile
// calibrated from fuzzed phases: one to twenty, three bytes each (work
// weight, core and memory utilization), with an iteration time up to
// 1e11 s, which reaches the clock's saturation range. It skips inputs the
// simulator does not represent. FuzzGovernorSkip and FuzzClosedForm share
// it.
func fuzzProfile(t *testing.T, gpu gpusim.Config, cpu cpusim.Config, gt *gpusim.Tables,
	profiles []*workload.Profile, which uint8, phaseBytes []byte, iterSeconds float64) *workload.Profile {
	t.Helper()
	if k := int(which % 10); k < len(profiles) {
		return profiles[k]
	}
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
		uc, um := float64(pb[3*i+1])/255, float64(pb[3*i+2])/255
		// Scale infeasible targets into the calibration's feasible
		// region, max + γ·min ≤ 1, with a little headroom.
		if k := (max(uc, um) + gpu.OverlapGamma*min(uc, um)) * (1 + 1e-6); k > 1 {
			uc, um = uc/k, um/k
		}
		spec.Phases[i] = workload.PhaseTarget{Fraction: (1 + float64(pb[3*i])) / total, CoreUtil: uc, MemUtil: um}
	}
	prof, err := workload.Calibrate(spec, gpu, cpu)
	if err != nil {
		t.Skip(err)
	}
	// Every phase, even at the slowest ladder corner, must fit the
	// clock's range on its own; only a run's accumulated iterations may
	// reach sim.MaxTime.
	for _, ph := range prof.Phases {
		u := workload.UnitsPerIteration * ph.Fraction
		tc := ph.OpsPerUnit * u / gt.CoreDenom[0]
		tm := ph.BytesPerUnit * u / gt.MemDenom[0]
		if max(tc, tm, ph.StallPerUnit*u)+gpu.OverlapGamma*min(tc, tm) >= 0.99*sim.MaxTime.Seconds() {
			t.Skip("a phase at the slowest ladder corner outruns the clock")
		}
	}
	return prof
}
