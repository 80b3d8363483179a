package sweep

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"greengpu/internal/core"
	"greengpu/internal/dvfs"
	"greengpu/internal/faultinject"
	"greengpu/internal/predict"
	"greengpu/internal/runcache"
	"greengpu/internal/telemetry"
	"greengpu/internal/testbed"
	"greengpu/internal/workload"
)

// denseEngine builds an engine on the synthetic 24×24 dense-ladder card,
// with the workloads recalibrated against it.
func denseEngine(t testing.TB) *Engine {
	t.Helper()
	gpu, cpu, b := testbed.GeForce8800GTXDense(24, 24), testbed.PhenomIIX2(), testbed.PCIe()
	profiles, err := workload.Rodinia(gpu, cpu)
	if err != nil {
		t.Fatal(err)
	}
	return mustNew(t, gpu, cpu, b, profiles)
}

// bruteSpots exhaustively evaluates the spec and returns each workload's
// minimum-energy point in the studies' convention: grid order (core outer,
// memory inner), strict less-than keeps the earliest.
func bruteSpots(t testing.TB, e *Engine, spec Spec) map[string]PointResult {
	t.Helper()
	results, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	best := map[string]PointResult{}
	for _, pr := range results {
		if b, ok := best[pr.Workload]; !ok || pr.Energy < b.Energy {
			best[pr.Workload] = pr
		}
	}
	return best
}

// TestPredictSweetSpotsMatchBruteForce is the predictor's headline
// contract on the paper's 6×6 ladder: for every workload, the O(anchors)
// search must return the exhaustive sweep's exact sweet spot — same point,
// byte-identical measured time and energy. The verification budget is
// TopM=12: on this small grid the model's crossover error can rank the
// true optimum as deep as 11th-12th among candidates (memory-level
// crossovers are the piecewise-linear model's blind spot), so exactness
// costs 17 of 36 evaluations here; the dense-ladder test below shows the
// default budget's 64× reduction where the grid is large enough for
// prediction to pay.
func TestPredictSweetSpotsMatchBruteForce(t *testing.T) {
	e := testEngine(t)
	spec := Spec{Iterations: 4, CPULevel: -1}
	want := bruteSpots(t, e, spec)
	spots, err := e.PredictSweetSpots(spec, predict.Options{TopM: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(spots) != len(e.Profiles) {
		t.Fatalf("got %d spots, want %d", len(spots), len(e.Profiles))
	}
	for _, s := range spots {
		w := want[s.Workload]
		oc := s.Outcome
		if !oc.Verified || oc.Fallback {
			t.Errorf("%s: outcome not simulation-verified: %+v", s.Workload, oc)
		}
		if oc.Core != w.Core || oc.Mem != w.Mem {
			t.Errorf("%s: spot (%d,%d), brute force found (%d,%d)",
				s.Workload, oc.Core, oc.Mem, w.Core, w.Mem)
		}
		if oc.Time != w.TotalTime || oc.Energy != w.Energy {
			t.Errorf("%s: measurements (%v, %v) differ from brute force (%v, %v)",
				s.Workload, oc.Time, oc.Energy, w.TotalTime, w.Energy)
		}
		if oc.Points != 36 || oc.FullEvals >= oc.Points {
			t.Errorf("%s: FullEvals=%d Points=%d", s.Workload, oc.FullEvals, oc.Points)
		}
	}
}

// TestPredictSweetSpotsDenseReduction pins the perf claim on the synthetic
// 24×24 ladder: the search still lands on the exhaustive sweet spot while
// requesting at least 50× fewer full evaluations than the 576-point sweep.
func TestPredictSweetSpotsDenseReduction(t *testing.T) {
	e := denseEngine(t)
	spec := Spec{Workloads: []string{"kmeans"}, Iterations: 4, CPULevel: -1}
	want := bruteSpots(t, e, spec)["kmeans"]
	spots, err := e.PredictSweetSpots(spec, predict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oc := spots[0].Outcome
	if oc.Points != 576 {
		t.Fatalf("Points = %d, want 576", oc.Points)
	}
	if oc.FullEvals*50 > oc.Points {
		t.Errorf("FullEvals = %d on %d points: reduction %.1fx < 50x",
			oc.FullEvals, oc.Points, float64(oc.Points)/float64(oc.FullEvals))
	}
	if oc.Core != want.Core || oc.Mem != want.Mem {
		t.Errorf("spot (%d,%d), brute force found (%d,%d)", oc.Core, oc.Mem, want.Core, want.Mem)
	}
	if oc.Time != want.TotalTime || oc.Energy != want.Energy {
		t.Errorf("measurements diverge from brute force")
	}
}

// TestPredictSweetSpotsSubLadder: a spec sweeping ladder subsets searches
// only those levels, and the outcome reports device-ladder indices.
func TestPredictSweetSpotsSubLadder(t *testing.T) {
	e := testEngine(t)
	spec := Spec{Workloads: []string{"nbody"}, Iterations: 4, CPULevel: -1,
		CoreLevels: []int{0, 2, 4}, MemLevels: []int{1, 3, 5}}
	want := bruteSpots(t, e, spec)["nbody"]
	spots, err := e.PredictSweetSpots(spec, predict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oc := spots[0].Outcome
	if oc.Points != 9 {
		t.Errorf("Points = %d, want 9", oc.Points)
	}
	if oc.Core != want.Core || oc.Mem != want.Mem {
		t.Errorf("spot (%d,%d), brute force found (%d,%d)", oc.Core, oc.Mem, want.Core, want.Mem)
	}
}

// TestPredictSweetSpotsGeneratedLadders holds the search to the
// validation study's bounds on generated inputs: seeded random sub-ladders
// (at least two levels per domain) of the 6×6 testbed ladder and of the
// 24×24 dense card, each with a random workload, searched at the default
// verification budget and at the study's 12. Every spot must lie within one
// sub-ladder step of the exhaustive minimum or cost at most 5% more
// energy; on 6×6 sub-ladders at budget 12 it must be the exhaustive spot
// exactly, point and measurements alike.
func TestPredictSweetSpotsGeneratedLadders(t *testing.T) {
	const draws = 200
	rng := rand.New(rand.NewPCG(2012, 6))
	for _, ladder := range []struct {
		name string
		e    *Engine
	}{{"6x6", testEngine(t)}, {"24x24", denseEngine(t)}} {
		e := ladder.e
		for i := 0; i < draws; i++ {
			spec := Spec{
				Workloads:  []string{e.Profiles[rng.IntN(len(e.Profiles))].Name},
				Iterations: 4, CPULevel: -1,
				CoreLevels: subLadder(rng, len(e.GPU.CoreLevels)),
				MemLevels:  subLadder(rng, len(e.GPU.MemLevels)),
			}
			want := bruteSpots(t, e, spec)[spec.Workloads[0]]
			// step places a device-ladder pair on the sub-ladder's grid.
			step := func(c, m int) dvfs.Decision {
				return dvfs.Decision{CoreLevel: slices.Index(spec.CoreLevels, c),
					MemLevel: slices.Index(spec.MemLevels, m)}
			}
			for _, topM := range []int{0, 12} {
				spots, err := e.PredictSweetSpots(spec, predict.Options{TopM: topM})
				if err != nil {
					t.Fatalf("%s draw %d %+v: %v", ladder.name, i, spec, err)
				}
				oc := spots[0].Outcome
				dist := dvfs.PairDistance(step(oc.Core, oc.Mem), step(want.Core, want.Mem))
				bestJ := want.Energy.Joules()
				regret := (oc.Energy.Joules() - bestJ) / bestJ
				if !oc.Verified || regret < 0 || (dist > 1 && regret > 0.05) {
					t.Errorf("%s draw %d topm=%d %+v: spot (%d,%d) verified=%v, brute force (%d,%d): %d steps, regret %.4f",
						ladder.name, i, topM, spec, oc.Core, oc.Mem, oc.Verified, want.Core, want.Mem, dist, regret)
				}
				if ladder.name == "6x6" && topM == 12 && (oc.Core != want.Core || oc.Mem != want.Mem ||
					oc.Time != want.TotalTime || oc.Energy != want.Energy) {
					t.Errorf("6x6 draw %d %+v: spot (%d,%d) %v %v, brute force (%d,%d) %v %v",
						i, spec, oc.Core, oc.Mem, oc.Time, oc.Energy,
						want.Core, want.Mem, want.TotalTime, want.Energy)
				}
			}
		}
	}
}

// subLadder draws an ascending random subset of at least two of n levels.
func subLadder(rng *rand.Rand, n int) []int {
	levels := rng.Perm(n)[:2+rng.IntN(n-1)]
	slices.Sort(levels)
	return levels
}

// TestPredictSweetSpotsCacheReplay: with a cache attached, a repeated
// search replays the memoized outcome byte-identically — including the
// deterministic FullEvals request count — without recomputing anything.
func TestPredictSweetSpotsCacheReplay(t *testing.T) {
	e := testEngine(t)
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Cache = cache
	spec := Spec{Workloads: []string{"kmeans"}, Iterations: 4, CPULevel: -1}
	cold, err := e.PredictSweetSpots(spec, predict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	misses := cache.Stats().Misses
	warm, err := e.PredictSweetSpots(spec, predict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm replay diverged:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	if s := cache.Stats(); s.Misses != misses {
		t.Errorf("warm search recomputed: misses %d -> %d", misses, s.Misses)
	}
	// A different search flavour must not collide with the memoized one.
	wide, err := e.PredictSweetSpots(spec, predict.Options{TopM: 12})
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Misses == misses {
		t.Errorf("TopM=12 search served from the default search's cache entry: %+v", wide[0].Outcome)
	}
}

// TestPredictSweetSpotsRejectsDraws: Monte Carlo specs have no ladder to
// search.
func TestPredictSweetSpotsRejectsDraws(t *testing.T) {
	e := testEngine(t)
	if _, err := e.PredictSweetSpots(Spec{Draws: 3, CPULevel: -1}, predict.Options{}); err == nil {
		t.Fatal("draw spec accepted")
	}
}

// TestPredictFlightRecord: each search stamps one flight-recorder epoch in
// mode "predict", with the Predicted flag set exactly on model-only
// (unverified) outcomes.
func TestPredictFlightRecord(t *testing.T) {
	e := testEngine(t)
	fr := telemetry.NewFlightRecorder(8)
	telemetry.SetFlightRecorder(fr)
	defer telemetry.SetFlightRecorder(nil)

	spec := Spec{Workloads: []string{"kmeans"}, Iterations: 4, CPULevel: -1}
	verified, err := e.PredictSweetSpots(spec, predict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.PredictSweetSpots(spec, predict.Options{TopM: -1}); err != nil {
		t.Fatal(err)
	}
	recs := fr.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("got %d flight records, want 2", len(recs))
	}
	for i, rec := range recs {
		if rec.Workload != "kmeans" || rec.Mode != "predict" {
			t.Errorf("record %d = %+v, want workload kmeans mode predict", i, rec)
		}
	}
	if recs[0].Predicted {
		t.Error("verified search stamped Predicted=true")
	}
	if !recs[1].Predicted {
		t.Error("unverified (TopM<0) search did not stamp Predicted")
	}
	oc := verified[0].Outcome
	if recs[0].CoreLevel != oc.Core || recs[0].MemLevel != oc.Mem || recs[0].At != oc.Time {
		t.Errorf("record %+v does not match outcome %+v", recs[0], oc)
	}
	if wantP := oc.Energy.Joules() / oc.Time.Seconds(); math.Abs(recs[0].PowerW-wantP) > 1e-9 {
		t.Errorf("record power %v, want %v", recs[0].PowerW, wantP)
	}
}

// TestRunFallbackMatrix drives every spec-reachable configuration that the
// closed-form evaluator cannot express — dynamic control modes, an armed
// ambient fault plan, Monte Carlo draws — and checks each point both
// bypasses the fast path and is counted on the fallback telemetry metric.
// A baseline control row pins the complementary fast-path count;
// TestRunSaturationStaysFast covers runs that reach the clock's horizon.
func TestRunFallbackMatrix(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	armed := faultinject.Default(7)
	for _, tc := range []struct {
		name     string
		spec     Spec
		plan     *faultinject.Plan
		wantFast bool
	}{
		{"baseline-ladder", Spec{Workloads: []string{"kmeans"}, Iterations: 2, CPULevel: -1,
			CoreLevels: []int{0, 5}, MemLevels: []int{0, 5}}, nil, true},
		{"mode-scaling", Spec{Workloads: []string{"kmeans"}, Mode: core.FreqScaling, Iterations: 2, CPULevel: -1,
			CoreLevels: []int{5}, MemLevels: []int{5}}, nil, false},
		{"mode-division", Spec{Workloads: []string{"kmeans"}, Mode: core.Division, Iterations: 2, CPULevel: -1,
			CoreLevels: []int{5}, MemLevels: []int{5}}, nil, false},
		{"mode-holistic", Spec{Workloads: []string{"kmeans"}, Mode: core.Holistic, Iterations: 2, CPULevel: -1,
			CoreLevels: []int{5}, MemLevels: []int{5}}, nil, false},
		{"ambient-fault-plan", Spec{Workloads: []string{"kmeans"}, Iterations: 2, CPULevel: -1,
			CoreLevels: []int{5}, MemLevels: []int{5}}, &armed, false},
		{"monte-carlo-draws", Spec{Workloads: []string{"kmeans"}, Iterations: 2, CPULevel: -1,
			Draws: 2}, nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := testEngine(t)
			e.FaultPlan = tc.plan
			fastBefore := telemetry.Default.CounterValue(telemetry.MetricSweepFastPath)
			fallBefore := telemetry.Default.CounterValue(telemetry.MetricSweepFallback)
			results, err := e.Run(context.Background(), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for i, pr := range results {
				if pr.Fast != tc.wantFast {
					t.Errorf("point %d (%+v): Fast=%v, want %v", i, pr.Point, pr.Fast, tc.wantFast)
				}
			}
			n := uint64(len(results))
			fastN := telemetry.Default.CounterValue(telemetry.MetricSweepFastPath) - fastBefore
			fallN := telemetry.Default.CounterValue(telemetry.MetricSweepFallback) - fallBefore
			wantFastN, wantFallN := uint64(0), n
			if tc.wantFast {
				wantFastN, wantFallN = n, 0
			}
			if fastN != wantFastN || fallN != wantFallN {
				t.Errorf("metrics: fast +%d fallback +%d, want +%d/+%d", fastN, fallN, wantFastN, wantFallN)
			}
		})
	}
}

// TestPointCountersAddUp: with telemetry on, points_total advances by
// exactly the fast plus fallback advance, and each of those by the number
// of evaluated points whose Fast flag is true or false — for Engine.Run on
// a ladder whose workloads take different paths and on draws, for
// PredictSweetSpots (whose evaluations are its outcomes' FullEvals), and
// for Engine.Eval.
func TestPointCountersAddUp(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	e := testEngine(t)
	// More phases than the closed-form loop holds: every point falls back.
	seventeen := make([]workload.PhaseTarget, 17)
	for i := range seventeen {
		seventeen[i] = workload.PhaseTarget{Label: fmt.Sprintf("p%d", i), Fraction: 1.0 / 17,
			CoreUtil: 0.1 + 0.04*float64(i), MemUtil: 0.7 - 0.04*float64(i)}
	}
	prof, err := workload.Calibrate(workload.Spec{Name: "seventeen", IterationSeconds: 30, Iterations: 4,
		Phases: seventeen, CPUSlowdown: 5, TransferMB: 1}, e.GPU, e.CPU)
	if err != nil {
		t.Fatal(err)
	}
	e = mustNew(t, e.GPU, e.CPU, e.Bus, append(e.Profiles, prof))

	counters := func() [3]uint64 {
		v := telemetry.Default.CounterValue
		return [3]uint64{v(telemetry.MetricSweepPoints), v(telemetry.MetricSweepFastPath), v(telemetry.MetricSweepFallback)}
	}
	check := func(name string, before [3]uint64, fast, fallback int) {
		t.Helper()
		after := counters()
		points, fastN, fallN := after[0]-before[0], after[1]-before[1], after[2]-before[2]
		if points != fastN+fallN || fastN != uint64(fast) || fallN != uint64(fallback) {
			t.Errorf("%s: points +%d, fast +%d, fallback +%d; want fast +%d, fallback +%d and points their sum",
				name, points, fastN, fallN, fast, fallback)
		}
	}
	byFast := func(results []PointResult) (fast, fallback int) {
		for _, pr := range results {
			if pr.Fast {
				fast++
			} else {
				fallback++
			}
		}
		return fast, fallback
	}

	for _, spec := range []Spec{
		{Workloads: []string{"kmeans", "seventeen", "hotspot"}, Iterations: 2, CPULevel: -1,
			CoreLevels: []int{0, 5}, MemLevels: []int{1, 3, 5}},
		{Workloads: []string{"kmeans", "seventeen"}, Iterations: 2, CPULevel: -1, Draws: 3},
	} {
		before := counters()
		results, err := e.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		fast, fallback := byFast(results)
		if spec.Draws == 0 && (fast == 0 || fallback == 0) {
			t.Fatalf("ladder: fast %d, fallback %d; want both paths taken", fast, fallback)
		}
		check(fmt.Sprintf("Run draws=%d", spec.Draws), before, fast, fallback)
	}

	for _, mode := range []core.Mode{core.Baseline, core.Holistic} {
		before := counters()
		spots, err := e.PredictSweetSpots(Spec{Workloads: []string{"kmeans", "lud"}, Mode: mode,
			Iterations: 2, CPULevel: -1}, predict.Options{})
		if err != nil {
			t.Fatal(err)
		}
		evals := 0
		for _, s := range spots {
			evals += s.Outcome.FullEvals
		}
		if mode == core.Baseline {
			check("PredictSweetSpots baseline", before, evals, 0)
		} else {
			check("PredictSweetSpots holistic", before, 0, evals)
		}
	}

	for _, mode := range []core.Mode{core.Baseline, core.Holistic} {
		before := counters()
		cfg := core.DefaultConfig(mode)
		cfg.Iterations = 2
		_, fast, err := e.Eval("kmeans", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fast {
			check("Engine.Eval", before, 1, 0)
		} else {
			check("Engine.Eval", before, 0, 1)
		}
	}
}

// TestRunSaturationStaysFast: profiles the closed-form loop cannot express
// — one whose span drives the clock into its saturation range, and one with
// more phases than the loop holds — fall back to core.Run through
// Engine.Run (Fast is false) and stay byte-identical to the per-point
// engine.
func TestRunSaturationStaysFast(t *testing.T) {
	seventeen := make([]workload.PhaseTarget, 17)
	for i := range seventeen {
		seventeen[i] = workload.PhaseTarget{Label: fmt.Sprintf("p%d", i), Fraction: 1.0 / 17,
			CoreUtil: 0.1 + 0.04*float64(i), MemUtil: 0.7 - 0.04*float64(i)}
	}
	for _, tc := range []struct {
		name        string
		iterSeconds float64
		phases      []workload.PhaseTarget
	}{
		// 4 × 2.4e9 s crosses the ~292-year clock horizon inside the FINAL
		// iteration's kernel phase: the phase end saturates (sim.AddTime),
		// the per-point engine completes, and the two paths can be compared.
		{"saturate", 2.4e9, []workload.PhaseTarget{{Label: "p", Fraction: 1, CoreUtil: 0.7, MemUtil: 0.2}}},
		// One phase more than the closed-form loop holds.
		{"seventeen", 30, seventeen},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := testEngine(t)
			prof, err := workload.Calibrate(workload.Spec{
				Name:             tc.name,
				IterationSeconds: tc.iterSeconds,
				Iterations:       4,
				Phases:           tc.phases,
				CPUSlowdown:      5,
				TransferMB:       1,
			}, e.GPU, e.CPU)
			if err != nil {
				t.Fatal(err)
			}
			e = mustNew(t, e.GPU, e.CPU, e.Bus, append(e.Profiles, prof))
			spec := Spec{Workloads: []string{tc.name}, Iterations: 4, CPULevel: -1,
				CoreLevels: []int{0, 5}, MemLevels: []int{0, 5}}
			got, err := e.Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveRun(t, e, spec)
			full, _ := evalFull(t, e, spec)
			for i := range got {
				if got[i].Fast {
					t.Errorf("point %d (%+v) took the closed form", i, got[i].Point)
				}
				if !sameTotals(got[i], want[i]) || !reflect.DeepEqual(full[i], want[i]) {
					t.Errorf("point %d (%+v): result diverges from per-point run", i, got[i].Point)
				}
			}
		})
	}
}
