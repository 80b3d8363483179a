package dvfs

import (
	"testing"

	"greengpu/internal/testbed"
	"greengpu/internal/units"
)

func benchLadder(n int) []units.Frequency {
	out := make([]units.Frequency, n)
	for i := range out {
		out[i] = units.Frequency(400+i*40) * units.Megahertz
	}
	return out
}

// BenchmarkScalerStep measures one full Algorithm 1 interval on the
// testbed-sized 6×6 pair table: 36 loss evaluations, 36 multiplicative
// updates, one argmax. After tens of thousands of identical steps most of
// the table's weights are subnormal, which slows every multiply;
// BenchmarkScalerEpisode measures the steps a simulation actually takes.
func BenchmarkScalerStep(b *testing.B) {
	s := NewScaler(benchLadder(6), benchLadder(6), DefaultParams())
	for i := 0; i < b.N; i++ {
		s.Step(0.6, 0.4)
	}
}

// BenchmarkScalerStepLarge measures a modern-GPU-sized 16×16 table.
func BenchmarkScalerStepLarge(b *testing.B) {
	s := NewScaler(benchLadder(16), benchLadder(16), DefaultParams())
	for i := 0; i < b.N; i++ {
		s.Step(0.6, 0.4)
	}
}

// holisticTrace is the (u_core, u_mem) sequence the tier-2 scaler saw over
// the first 60 DVFS epochs of a holistic kmeans run on the testbed (core.Run
// with DefaultConfig(Holistic)), run-length encoded: a busy phase, the idle
// gap of the CPU-bound share, and the next iteration's ramp.
var holisticTrace = []struct {
	uc, um float64
	n      int
}{
	{0.7936674276666666, 0.594630518, 1},
	{0.6293204506666666, 0.4208979153333333, 27},
	{0.22861060233333333, 0.15289782133333332, 1},
	{0, 0, 19},
	{0.49744176733333334, 0.31247661666666665, 1},
	{0.6700411856666667, 0.4208979153333333, 11},
}

// BenchmarkScalerEpisode measures one fresh scaler stepping through
// holisticTrace on the testbed ladders: 60 steps per op, the per-run tier-2
// cost of a simulation point. Unlike BenchmarkScalerStep's long identical
// run, no weight gets anywhere near the subnormal range.
func BenchmarkScalerEpisode(b *testing.B) {
	tb := testbed.GeForce8800GTX()
	s := NewScaler(tb.CoreLevels, tb.MemLevels, DefaultParams())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Reset()
		for _, seg := range holisticTrace {
			for k := 0; k < seg.n; k++ {
				s.Step(seg.uc, seg.um)
			}
		}
	}
}

// TestScalerStepDoesNotAllocate pins the tier-2 epoch at zero allocations
// on both paths: each op steps a new sample, rebuilding the loss vector,
// then repeats it, reusing the vector.
func TestScalerStepDoesNotAllocate(t *testing.T) {
	s := NewScaler(benchLadder(6), benchLadder(6), DefaultParams())
	samples := [2][2]float64{{0.6, 0.4}, {0.2, 0.9}}
	k := 0
	if allocs := testing.AllocsPerRun(100, func() {
		u := samples[k%2]
		k++
		s.Step(u[0], u[1])
		s.Step(u[0], u[1])
	}); allocs != 0 {
		t.Errorf("Scaler.Step allocates %v objects per op, want 0", allocs)
	}
}

// BenchmarkLoss measures the Table I loss kernel alone — the paper's §VI
// argues it reduces to shift-add hardware; this is its software cost.
func BenchmarkLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Loss(0.73, 0.6, 0.15)
	}
}
