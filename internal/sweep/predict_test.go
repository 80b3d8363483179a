package sweep

import (
	"context"
	"math"
	"reflect"
	"testing"

	"greengpu/internal/core"
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
	return &Engine{GPU: gpu, CPU: cpu, Bus: b, Profiles: profiles, Jobs: 1}
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
		if b, ok := best[pr.Workload]; !ok || pr.Result.Energy < b.Result.Energy {
			best[pr.Workload] = pr
		}
	}
	return best
}

// TestPredictSweetSpotsMatchBruteForce is the predictor's headline
// contract on the paper's 6×6 ladder: for every workload and every anchor
// strategy, the O(anchors) search must return the exhaustive sweep's exact
// sweet spot — same point, byte-identical measured time and energy. The
// verification budget is TopM=12: on this small grid the model's crossover
// error can rank the true optimum as deep as 11th-12th among candidates
// (memory-level crossovers are the piecewise-linear model's blind spot),
// so exactness costs 17 of 36 evaluations here; the dense-ladder test
// below shows the default budget's 64× reduction where the grid is large
// enough for prediction to pay.
func TestPredictSweetSpotsMatchBruteForce(t *testing.T) {
	e := testEngine(t)
	spec := Spec{Iterations: 4, CPULevel: -1}
	want := bruteSpots(t, e, spec)
	for _, strat := range []predict.Strategy{predict.CornersCenter, predict.DOptimalLite, predict.Adaptive} {
		spots, err := e.PredictSweetSpots(spec, predict.Options{Strategy: strat, TopM: 12})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(spots) != len(e.Profiles) {
			t.Fatalf("%v: got %d spots, want %d", strat, len(spots), len(e.Profiles))
		}
		for _, s := range spots {
			w := want[s.Workload]
			oc := s.Outcome
			if !oc.Verified || oc.Fallback {
				t.Errorf("%v/%s: outcome not simulation-verified: %+v", strat, s.Workload, oc)
			}
			if oc.Core != w.Core || oc.Mem != w.Mem {
				t.Errorf("%v/%s: spot (%d,%d), brute force found (%d,%d)",
					strat, s.Workload, oc.Core, oc.Mem, w.Core, w.Mem)
			}
			if oc.Time != w.Result.TotalTime || oc.Energy != w.Result.Energy {
				t.Errorf("%v/%s: measurements (%v, %v) differ from brute force (%v, %v)",
					strat, s.Workload, oc.Time, oc.Energy, w.Result.TotalTime, w.Result.Energy)
			}
			if oc.Points != 36 || oc.FullEvals >= oc.Points {
				t.Errorf("%v/%s: FullEvals=%d Points=%d", strat, s.Workload, oc.FullEvals, oc.Points)
			}
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
	if oc.Time != want.Result.TotalTime || oc.Energy != want.Result.Energy {
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
	cold, err := e.PredictSweetSpots(spec, predict.Options{Strategy: predict.Adaptive})
	if err != nil {
		t.Fatal(err)
	}
	misses := cache.Stats().Misses
	warm, err := e.PredictSweetSpots(spec, predict.Options{Strategy: predict.Adaptive})
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
	edp, err := e.PredictSweetSpots(spec, predict.Options{Strategy: predict.Adaptive, Objective: predict.MinEDP})
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Misses == misses {
		t.Errorf("EDP search served from the energy search's cache entry: %+v", edp[0].Outcome)
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

// TestRunSaturationStaysFast: a profile whose span drives the clock into
// its saturation range is one the closed-form loop cannot express, so its
// points fall back to core.Run (Fast is false) and stay byte-identical to
// the per-point engine.
func TestRunSaturationStaysFast(t *testing.T) {
	e := testEngine(t)
	// 4 × 2.4e9 s crosses the ~292-year clock horizon inside the FINAL
	// iteration's kernel phase: the phase end saturates (sim.AddTime), the
	// per-point engine completes, and the two paths can be compared.
	sat, err := workload.Calibrate(workload.Spec{
		Name:             "saturate",
		IterationSeconds: 2.4e9,
		Iterations:       4,
		Phases:           []workload.PhaseTarget{{Label: "p", Fraction: 1, CoreUtil: 0.7, MemUtil: 0.2}},
		CPUSlowdown:      5,
		TransferMB:       1,
	}, e.GPU, e.CPU)
	if err != nil {
		t.Fatal(err)
	}
	e.Profiles = append(e.Profiles, sat)
	spec := Spec{Workloads: []string{"saturate"}, Iterations: 4, CPULevel: -1,
		CoreLevels: []int{0, 5}, MemLevels: []int{0, 5}}
	got, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveRun(t, e, spec)
	for i := range got {
		if got[i].Fast {
			t.Errorf("point %d (%+v) took the closed form into clock saturation", i, got[i].Point)
		}
		if !reflect.DeepEqual(got[i].Result, want[i]) {
			t.Errorf("point %d (%+v): saturated result diverges from per-point run", i, got[i].Point)
		}
	}
}
