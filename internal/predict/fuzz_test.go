package predict

import (
	"math"
	"testing"

	"greengpu/internal/units"
)

// FuzzPredictFit throws arbitrary anchor sets at Fit over arbitrary (and
// degenerate) ladders: whatever the input, Fit must either return an error
// or a model whose predictions over the whole ladder are finite. The fuzz
// engine drives the anchor geometry and measurements from a handful of
// scalars, so collinear sets, repeated points, NaN/Inf measurements and
// single-level ladders all fall out of the corpus.
func FuzzPredictFit(f *testing.F) {
	f.Add(6, 6, uint64(0), 1.0, 40.0, 5)
	f.Add(1, 1, uint64(7), 2.5, 80.0, 4)
	f.Add(24, 24, uint64(42), 0.0, 0.0, 9)
	f.Add(3, 2, uint64(999), math.Inf(1), -3.0, 6)
	f.Fuzz(func(t *testing.T, nc, nm int, seed uint64, tScale, eScale float64, k int) {
		if nc < 1 || nm < 1 || nc > 64 || nm > 64 || k < 0 || k > 32 {
			t.Skip()
		}
		core := make([]units.Frequency, nc)
		mem := make([]units.Frequency, nm)
		for i := range core {
			core[i] = units.Frequency(100+i*37) * units.Megahertz
		}
		for j := range mem {
			mem[j] = units.Frequency(200+j*53) * units.Megahertz
		}
		// Deterministic xorshift so the anchor set is a pure function of
		// the fuzz input.
		rng := seed | 1
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		anchors := make([]Sample, 0, k)
		for i := 0; i < k; i++ {
			c := int(next() % uint64(nc))
			m := int(next() % uint64(nm))
			tv := tScale * float64(next()%1000) / 100
			ev := eScale * float64(next()%1000) / 10
			anchors = append(anchors, Sample{
				Core: c, Mem: m,
				Time:   units.Seconds(tv),
				Energy: units.Energy(ev),
			})
		}
		model, err := Fit(core, mem, anchors)
		if err != nil {
			return // degenerate or invalid input, correctly refused
		}
		for c := 0; c < nc; c++ {
			for m := 0; m < nm; m++ {
				tv := model.TimeSeconds(c, m)
				ev := model.EnergyJoules(c, m)
				if math.IsNaN(tv) || math.IsInf(tv, 0) {
					t.Fatalf("non-finite time prediction %g at (%d,%d)", tv, c, m)
				}
				if math.IsNaN(ev) || math.IsInf(ev, 0) {
					t.Fatalf("non-finite energy prediction %g at (%d,%d)", ev, c, m)
				}
			}
		}
	})
}
