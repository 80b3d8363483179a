package sweep

import (
	"context"
	"testing"

	"greengpu/internal/core"
	"greengpu/internal/predict"
	"greengpu/internal/testbed"
	"greengpu/internal/workload"
)

// ladderSpec is the ladder² benchmark workload: the paper's full 6×6 GPU
// ladder on one profile at the frequency-study iteration count.
func ladderSpec() Spec {
	return Spec{Workloads: []string{"kmeans"}, Iterations: 4, CPULevel: -1}
}

// BenchmarkSweepBatched measures the batch engine over the 6×6 ladder:
// shared tables plus the closed-form evaluator, no cache, sequential — the
// points/s this reports is pure per-point throughput.
func BenchmarkSweepBatched(b *testing.B) {
	e := testEngine(b)
	spec := ladderSpec()
	pts := planPoints(b, e, spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(pts)*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSweepPredicted measures the analytic sweet-spot search on the
// synthetic 24×24 ladder: anchors plus top-M verification instead of the
// 576-point cross product. points/s counts ladder points *decided* per
// second (the search's coverage), fullevals the deterministic number of
// full evaluations one search requests, and evalreduction their ratio —
// the committed BENCH_sweep.json pins evalreduction ≥ 50.
func BenchmarkSweepPredicted(b *testing.B) {
	e := denseEngine(b)
	spec := Spec{Workloads: []string{"kmeans"}, Iterations: 4, CPULevel: -1}
	b.ReportAllocs()
	b.ResetTimer()
	var last SpotResult
	for i := 0; i < b.N; i++ {
		spots, err := e.PredictSweetSpots(spec, predict.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = spots[0]
	}
	b.StopTimer()
	oc := last.Outcome
	if !oc.Verified || oc.Fallback {
		b.Fatalf("search did not verify: %+v", oc)
	}
	b.ReportMetric(float64(oc.Points*b.N)/b.Elapsed().Seconds(), "points/s")
	b.ReportMetric(float64(oc.FullEvals), "fullevals")
	b.ReportMetric(float64(oc.Points)/float64(oc.FullEvals), "evalreduction")
}

// BenchmarkSweepNaive measures the same 36 points evaluated the pre-batch
// way: one fresh machine and one full event-driven simulation per point.
// The committed BENCH_sweep.json records the batched engine's lead over
// this baseline (docs/PERF.md "Sweeps").
func BenchmarkSweepNaive(b *testing.B) {
	e := testEngine(b)
	spec := ladderSpec()
	pts := planPoints(b, e, spec)
	prof, err := workload.ByName(e.Profiles, "kmeans")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pt := range pts {
			cfg := e.config(&spec, pt)
			if _, err := core.Run(testbed.NewFrom(e.GPU, e.CPU, e.Bus), prof, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(pts)*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSweepHolistic measures the 6×6 ladder in holistic mode
// (GreenGPU proper): every point takes the full event-by-event simulation,
// so points/s is the cost of the tier-2 controller ticks, the device
// models and the division tier — the layer the batch fast path never
// covers.
func BenchmarkSweepHolistic(b *testing.B) {
	e := testEngine(b)
	spec := ladderSpec()
	spec.Mode = core.Holistic
	pts := planPoints(b, e, spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(pts)*b.N)/b.Elapsed().Seconds(), "points/s")
}
