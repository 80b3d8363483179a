package experiments

import (
	"reflect"
	"testing"
)

// withJobs returns a copy of the shared test environment pinned to the
// given worker count. The copy shares the immutable configs and profiles.
func withJobs(jobs int) *Env {
	e := *env
	e.Jobs = jobs
	return &e
}

// TestParallelBitIdentical is the engine's central guarantee: every
// experiment produces exactly the same result — every float, every
// ordering — whether its points run sequentially or on eight workers.
func TestParallelBitIdentical(t *testing.T) {
	seq, par := withJobs(1), withJobs(8)

	type experiment struct {
		name string
		run  func(e *Env) (any, error)
	}
	cases := []experiment{
		{"Fig1", func(e *Env) (any, error) { return e.Fig1() }},
		{"Fig6", func(e *Env) (any, error) { return e.Fig6() }},
		{"Table2", func(e *Env) (any, error) { return e.Table2() }},
		{"DivisionSweep", func(e *Env) (any, error) { return e.DivisionSweep("kmeans", 0, 0.9, 0.1, 6) }},
		{"StaticSweep", func(e *Env) (any, error) { return e.StaticSweep("kmeans", "hotspot") }},
		{"SensorNoise", func(e *Env) (any, error) { return e.AblationSensorNoise("kmeans", []float64{0, 0.05, 0.2}) }},
		{"DividerComparison", func(e *Env) (any, error) { return e.DividerComparison("kmeans", "hotspot") }},
		{"ActuatorFaults", func(e *Env) (any, error) { return e.ActuatorFaults("kmeans") }},
		{"Portability", func(e *Env) (any, error) { return e.Portability() }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			a, err := c.run(seq)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			b, err := c.run(par)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("results differ between Jobs=1 and Jobs=8:\nseq: %+v\npar: %+v", a, b)
			}
		})
	}
}

// TestSensorNoiseIndependentOfSweepComposition: each noise row is a pure
// function of (workload, sigma) — removing or reordering the other sigmas
// must not change it.
func TestSensorNoiseIndependentOfSweepComposition(t *testing.T) {
	full, err := env.AblationSensorNoise("kmeans", []float64{0, 0.1, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	alone, err := env.AblationSensorNoise("kmeans", []float64{0.4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full[2], alone[0]) {
		t.Errorf("sigma=0.4 row depends on sweep composition:\nfull:  %+v\nalone: %+v", full[2], alone[0])
	}
	reordered, err := env.AblationSensorNoise("kmeans", []float64{0.4, 0.1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full[1], reordered[1]) {
		t.Errorf("sigma=0.1 row depends on sweep order:\nasc:  %+v\ndesc: %+v", full[1], reordered[1])
	}
}

// TestDeriveCarriesJobs: recalibrating studies must run their inner
// environments under the same worker bound as the outer one.
func TestDeriveCarriesJobs(t *testing.T) {
	e := withJobs(3)
	d, err := e.derive(e.GPU, e.CPU, e.Bus)
	if err != nil {
		t.Fatal(err)
	}
	if d.Jobs != 3 {
		t.Errorf("derived env has Jobs=%d, want 3", d.Jobs)
	}
}

// TestRunStopsOnMissingWorkload: a fan-out over a bad workload name must
// surface the lookup error, not panic or hang.
func TestRunStopsOnMissingWorkload(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		e := withJobs(jobs)
		if _, err := e.StaticSweep("kmeans", "nope"); err == nil {
			t.Errorf("Jobs=%d: missing workload accepted", jobs)
		}
		if _, err := e.AblationSensorNoise("nope", []float64{0.1}); err == nil {
			t.Errorf("Jobs=%d: missing workload accepted by noise ablation", jobs)
		}
	}
}
