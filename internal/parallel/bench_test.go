package parallel

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// spin burns deterministic CPU work, standing in for one simulated
// experiment point.
func spin(n int) float64 {
	x := 1.0
	for i := 0; i < n; i++ {
		x = x*1.0000001 + float64(i%7)
	}
	return x
}

// BenchmarkMapSpeedup measures the worker pool on CPU-bound tasks; the
// jobs=N variants should approach N× the jobs=1 throughput up to the
// machine's core count.
func BenchmarkMapSpeedup(b *testing.B) {
	items := make([]int, 64)
	for i := range items {
		items[i] = 200000
	}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("jobs=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Map(context.Background(), items, func(_ int, n int) (float64, error) {
					return spin(n), nil
				}, workers)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMapOverhead measures pure scheduling cost with no-op tasks.
func BenchmarkMapOverhead(b *testing.B) {
	items := make([]int, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := Map(context.Background(), items, func(i int, _ int) (int, error) {
			return i, nil
		}, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTaskSeed(b *testing.B) {
	var s uint64
	for i := 0; i < b.N; i++ {
		s ^= TaskSeed(42, i)
	}
	_ = s
}
