package experiments

import (
	"testing"

	"greengpu/internal/runcache"
	"greengpu/internal/telemetry"
)

// TestStudyPointsEvaluateThroughBatch runs sequentially with telemetry on:
// a study point is one sweep.Engine.Eval on the Env's own engine, so Fig.
// 1's 24 fixed-frequency baseline points all take the closed form and none
// runs core.Run. A by-value copy of env with its own cache and Jobs must
// evaluate under the copy's settings: the copy's cache records the grid as
// 22 misses and 2 hits (each workload's memory and core sweeps share their
// peak point), and env itself stays uncached.
func TestStudyPointsEvaluateThroughBatch(t *testing.T) {
	was := telemetry.Enabled()
	telemetry.Enable()
	defer func() {
		if !was {
			telemetry.Disable()
		}
	}()
	const coreRuns = "greengpu_core_runs_total"
	counter := telemetry.Default.CounterValue
	fast0, runs0 := counter(telemetry.MetricSweepFastPath), counter(coreRuns)
	if _, err := env.Fig1(); err != nil {
		t.Fatal(err)
	}
	if d := counter(telemetry.MetricSweepFastPath) - fast0; d != 24 {
		t.Errorf("Fig1 took the closed form %d times, want 24", d)
	}
	if d := counter(coreRuns) - runs0; d != 0 {
		t.Errorf("Fig1 ran core.Run %d times, want 0", d)
	}

	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := *env
	e.Cache = cache
	e.Jobs = 1
	if _, err := e.Fig1(); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Misses != 22 || s.Hits != 2 {
		t.Errorf("copy's cache recorded %d misses, %d hits; want 22, 2", s.Misses, s.Hits)
	}
	if env.Cache != nil {
		t.Error("setting the copy's cache changed env")
	}
}
