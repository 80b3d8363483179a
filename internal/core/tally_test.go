package core

import (
	"sync"
	"testing"
	"time"

	"greengpu/internal/dvfs"
	"greengpu/internal/telemetry"
	"greengpu/internal/testbed"
	"greengpu/internal/workload"
)

// TestTalliedCountersMatchObservers runs holistic points concurrently with
// telemetry on and checks that every counter a run tallies locally and
// flushes once at the end advances by exactly the number of events the
// run's observers saw — the count the per-event Inc calls produced before
// the tallies existed. The governor hook makes every tick fire, so the
// points then run again without it: the governor counters must advance by
// the same counts, the skipped ticks credited, while the engine fires
// fewer events.
func TestTalliedCountersMatchObservers(t *testing.T) {
	was := telemetry.Enabled()
	telemetry.Enable()
	defer func() {
		if !was {
			telemetry.Disable()
		}
	}()
	const events = "greengpu_sim_events_total"
	counters := []string{
		"greengpu_core_iterations_total",
		"greengpu_dvfs_steps_total",
		"greengpu_dvfs_level_changes_total",
		"greengpu_governor_decisions_total",
		"greengpu_governor_jumps_to_max_total",
		events,
	}
	snapshot := func() map[string]uint64 {
		m := make(map[string]uint64)
		for _, name := range counters {
			m[name] = telemetry.Default.CounterValue(name)
		}
		return m
	}

	type seen struct{ iterations, steps, changes, decisions, jumps uint64 }
	names := []string{"kmeans", "hotspot", "bfs", "nbody"}
	profiles := make([]*workload.Profile, len(names))
	for i, n := range names {
		profiles[i] = profileByName(t, n)
	}
	// runAll runs the eight points concurrently and sums what their
	// observers saw; without the governor hook it sees no decisions.
	runAll := func(governorHook bool) seen {
		results := make([]seen, 8)
		var wg sync.WaitGroup
		for g := range results {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				s := &results[g]
				var last dvfs.Decision
				first := true
				cfg := DefaultConfig(Holistic)
				cfg.Iterations = 3 + g%3
				cfg.OnIteration = func(IterationStats) { s.iterations++ }
				cfg.OnDVFS = func(_ time.Duration, _, _ float64, d dvfs.Decision) {
					s.steps++
					if !first && d != last {
						s.changes++
					}
					first, last = false, d
				}
				if governorHook {
					cfg.OnCPUGovernor = func(_ time.Duration, util float64, _ int) {
						s.decisions++
						if util > 0.80 { // ondemand's up-threshold
							s.jumps++
						}
					}
				}
				if _, err := Run(testbed.New(), profiles[g%len(profiles)], cfg); err != nil {
					t.Error(err)
				}
			}(g)
		}
		wg.Wait()
		var sum seen
		for _, s := range results {
			sum.iterations += s.iterations
			sum.steps += s.steps
			sum.changes += s.changes
			sum.decisions += s.decisions
			sum.jumps += s.jumps
		}
		return sum
	}

	before := snapshot()
	want := runAll(true)
	hooked := snapshot()
	if want.steps == 0 || want.decisions == 0 || want.jumps == 0 || want.changes == 0 {
		t.Fatalf("observers saw too little to check: %+v", want)
	}
	for name, w := range map[string]uint64{
		"greengpu_core_iterations_total":       want.iterations,
		"greengpu_dvfs_steps_total":            want.steps,
		"greengpu_dvfs_level_changes_total":    want.changes,
		"greengpu_governor_decisions_total":    want.decisions,
		"greengpu_governor_jumps_to_max_total": want.jumps,
	} {
		if got := hooked[name] - before[name]; got != w {
			t.Errorf("%s advanced by %d, observers saw %d", name, got, w)
		}
	}

	runAll(false)
	plain := snapshot()
	for _, name := range counters {
		if got, w := plain[name]-hooked[name], hooked[name]-before[name]; name != events && got != w {
			t.Errorf("without the governor hook %s advanced by %d, with it by %d", name, got, w)
		}
	}
	if got, w := plain[events]-hooked[events], hooked[events]-before[events]; got >= w {
		t.Errorf("without the governor hook the engine fired %d events, with it %d: no tick was skipped", got, w)
	}
}

// TestHolisticRunAllocsPerIteration pins the per-run allocation of the
// iteration machinery: the kernel, the CPU job, their names and callbacks
// and the iteration log are set up once per run, and simulation events
// carry no labels, so an extra iteration costs only the division log's
// amortized growth.
func TestHolisticRunAllocsPerIteration(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector runtime perturbs whole-run allocation counts")
	}
	p := profileByName(t, "kmeans")
	run := func(iters int) func() {
		return func() {
			cfg := DefaultConfig(Holistic)
			cfg.Iterations = iters
			if _, err := Run(testbed.New(), p, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	const lo, hi = 4, 12
	few := testing.AllocsPerRun(10, run(lo))
	many := testing.AllocsPerRun(10, run(hi))
	if perIter := (many - few) / (hi - lo); perIter > 1 {
		t.Fatalf("each extra iteration allocates %.1f objects (%.0f at %d iterations, %.0f at %d), want ≤ 1",
			perIter, few, lo, many, hi)
	}
}
