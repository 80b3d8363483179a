package fleet

import (
	"context"
	"testing"

	"greengpu/internal/runcache"
)

// benchSpec is the BENCH_fleet.json contract fleet: 10k nodes over one
// device class, all nine workloads, baseline mode, three fault
// intensities, deadlines on — 27 distinct groups, so the dedup engine
// runs 27 simulations where the naive loop runs 10,000.
func benchSpec() Spec {
	return Spec{
		Nodes:          10000,
		Seed:           DefaultSeed,
		Classes:        []string{"8800gtx"},
		FaultLevels:    []int{0, 1, 2},
		Iterations:     4,
		DeadlineFactor: 1.1,
	}
}

// BenchmarkFleetDedup measures the dedup-compressed engine end to end —
// node generation, fingerprint grouping, group simulation through the
// shared run cache, and the per-node fan-out — at 10k nodes. The
// committed BENCH_fleet.json pins its nodes/s at ≥50× BenchmarkFleetNaive
// and its dedupratio as a deterministic contract.
func BenchmarkFleetDedup(b *testing.B) {
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := &Engine{Cache: cache}
	spec := benchSpec()
	b.ReportAllocs()
	b.ResetTimer()
	var last *Result
	for i := 0; i < b.N; i++ {
		res, err := e.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(spec.Nodes*b.N)/b.Elapsed().Seconds(), "nodes/s")
	b.ReportMetric(last.DedupRatio(), "dedupratio")
}

// BenchmarkFleetNaive measures the same fleet evaluated the pre-dedup
// way: one fresh machine and one full simulation per node, no grouping,
// no cache. Its nodes/s is the baseline of the ≥50× contract. No
// ReportAllocs: at ~629k allocs/op the count flickers by ±1 from runtime
// background allocation, which would flake benchjson's hard no-increase
// gate; ns/op and nodes/s carry the regression signal here.
func BenchmarkFleetNaive(b *testing.B) {
	e := &Engine{}
	spec := benchSpec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunNaive(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(spec.Nodes*b.N)/b.Elapsed().Seconds(), "nodes/s")
}

// BenchmarkFleetAggregate isolates the zero-allocation per-node fan-out
// loop: attribution of group scalars back to 10k nodes.
func BenchmarkFleetAggregate(b *testing.B) {
	e := &Engine{}
	res, err := e.Run(context.Background(), benchSpec())
	if err != nil {
		b.Fatal(err)
	}
	sc := newGroupScalars(res.Groups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var agg Aggregates
		aggregate(res.NodeGroup, sc, &agg)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(res.NodeGroup)*b.N)/b.Elapsed().Seconds(), "nodes/s")
}
