package predict

import (
	"errors"
	"math"
	"testing"
	"time"

	"greengpu/internal/units"
)

// testLadders builds an nc×nm ladder pair spanning the testbed's frequency
// ranges.
func testLadders(nc, nm int) (core, mem []units.Frequency) {
	core = make([]units.Frequency, nc)
	mem = make([]units.Frequency, nm)
	for i := range core {
		core[i] = interp(411, 576, i, nc)
	}
	for j := range mem {
		mem[j] = interp(500, 900, j, nm)
	}
	return core, mem
}

func interp(loMHz, hiMHz, i, n int) units.Frequency {
	if n == 1 {
		return units.Frequency(hiMHz) * units.Megahertz
	}
	mhz := loMHz + (hiMHz-loMHz)*i/(n-1)
	return units.Frequency(mhz) * units.Megahertz
}

// synthetic is an exactly-linear ground truth: T = t0 + tc/fcR + tm/fmR,
// E = (e0 + e1·fcR + e2·fmR)·T + e3 — the model family itself, so Fit must
// reproduce it to numerical precision from any spanning anchor set.
type synthetic struct {
	core, mem []units.Frequency
}

func (s synthetic) timeAt(c, m int) float64 {
	fcR := float64(s.core[c]) / float64(s.core[len(s.core)-1])
	fmR := float64(s.mem[m]) / float64(s.mem[len(s.mem)-1])
	return 0.5 + 2.0/fcR + 1.2/fmR
}

func (s synthetic) energyAt(c, m int) float64 {
	fcR := float64(s.core[c]) / float64(s.core[len(s.core)-1])
	fmR := float64(s.mem[m]) / float64(s.mem[len(s.mem)-1])
	return (40 + 30*fcR + 18*fmR) * s.timeAt(c, m)
}

func (s synthetic) sample(c, m int) Sample {
	return Sample{
		Core: c, Mem: m,
		Time:   units.Seconds(s.timeAt(c, m)),
		Energy: units.Energy(s.energyAt(c, m)),
	}
}

func TestFitRecoversLinearTruth(t *testing.T) {
	core, mem := testLadders(6, 6)
	truth := synthetic{core, mem}
	var anchors []Sample
	for _, a := range Anchors(core, mem) {
		anchors = append(anchors, truth.sample(a.Core, a.Mem))
	}
	m, err := Fit(core, mem, anchors)
	if err != nil {
		t.Fatal(err)
	}
	for c := range core {
		for j := range mem {
			if got, want := m.TimeSeconds(c, j), truth.timeAt(c, j); RelErr(got, want) > 1e-9 {
				t.Errorf("time(%d,%d) = %g, want %g", c, j, got, want)
			}
			if got, want := m.EnergyJoules(c, j), truth.energyAt(c, j); RelErr(got, want) > 1e-9 {
				t.Errorf("energy(%d,%d) = %g, want %g", c, j, got, want)
			}
		}
	}
}

func TestFitDegenerateAnchors(t *testing.T) {
	core, mem := testLadders(6, 6)
	cases := []struct {
		name    string
		anchors []Sample
	}{
		{"empty", nil},
		{"too-few", []Sample{{Core: 0, Mem: 0, Time: time.Second, Energy: 10}}},
		{"duplicates", []Sample{
			{Core: 0, Mem: 0, Time: time.Second, Energy: 10},
			{Core: 0, Mem: 0, Time: time.Second, Energy: 10},
			{Core: 0, Mem: 0, Time: time.Second, Energy: 10},
			{Core: 0, Mem: 0, Time: time.Second, Energy: 10},
			{Core: 0, Mem: 0, Time: time.Second, Energy: 10},
		}},
		{"one-row", []Sample{ // spans neither domain: singular normal matrix
			{Core: 2, Mem: 0, Time: time.Second, Energy: 10},
			{Core: 2, Mem: 1, Time: time.Second, Energy: 10},
			{Core: 2, Mem: 2, Time: time.Second, Energy: 10},
			{Core: 2, Mem: 3, Time: time.Second, Energy: 10},
		}},
		{"nan-energy", []Sample{
			{Core: 0, Mem: 0, Time: time.Second, Energy: units.Energy(math.NaN())},
			{Core: 0, Mem: 5, Time: time.Second, Energy: 10},
			{Core: 5, Mem: 0, Time: time.Second, Energy: 10},
			{Core: 5, Mem: 5, Time: time.Second, Energy: 10},
			{Core: 2, Mem: 2, Time: time.Second, Energy: 10},
		}},
	}
	for _, tc := range cases {
		if _, err := Fit(core, mem, tc.anchors); !errors.Is(err, ErrDegenerate) {
			t.Errorf("%s: got %v, want ErrDegenerate", tc.name, err)
		}
	}
	if _, err := Fit(core, mem, []Sample{{Core: 9, Mem: 0}}); err == nil || errors.Is(err, ErrDegenerate) {
		t.Errorf("out-of-range anchor: got %v, want a plain error", err)
	}
}

func TestAnchorsStrategies(t *testing.T) {
	core, mem := testLadders(6, 6)
	as := Anchors(core, mem)
	if len(as) != 5 {
		t.Errorf("%d anchors, want 5", len(as))
	}
	seen := map[Anchor]bool{}
	spanC, spanM := map[int]bool{}, map[int]bool{}
	for _, a := range as {
		if a.Core < 0 || a.Core >= 6 || a.Mem < 0 || a.Mem >= 6 {
			t.Errorf("anchor %+v out of range", a)
		}
		if seen[a] {
			t.Errorf("duplicate anchor %+v", a)
		}
		seen[a] = true
		spanC[a.Core] = true
		spanM[a.Mem] = true
	}
	if len(spanC) < 2 || len(spanM) < 2 {
		t.Errorf("anchors do not span both domains: %+v", as)
	}
	// Degenerate 1×1 ladder: corners collapse to a single anchor.
	c1, m1 := testLadders(1, 1)
	if as := Anchors(c1, m1); len(as) != 1 {
		t.Errorf("1x1 ladder: %d anchors, want 1", len(as))
	}
}

// TestSweetSpotMatchesBruteForce drives the search against the linear
// ground truth: the verified spot must equal the exhaustive argmin, found
// with O(anchors) evaluations.
func TestSweetSpotMatchesBruteForce(t *testing.T) {
	core, mem := testLadders(24, 24)
	truth := synthetic{core, mem}
	// Exhaustive reference, grid order, strict less-than.
	bc, bm := 0, 0
	for c := range core {
		for m := range mem {
			if truth.energyAt(c, m) < truth.energyAt(bc, bm) {
				bc, bm = c, m
			}
		}
	}
	evals := 0
	eval := func(c, m int) (Sample, error) {
		evals++
		return truth.sample(c, m), nil
	}
	out, err := SweetSpot(core, mem, eval, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Core != bc || out.Mem != bm {
		t.Errorf("spot (%d,%d), brute force (%d,%d)", out.Core, out.Mem, bc, bm)
	}
	if !out.Verified || out.Fallback {
		t.Errorf("Verified=%v Fallback=%v, want verified non-fallback", out.Verified, out.Fallback)
	}
	if evals != out.FullEvals {
		t.Errorf("counted %d evals, outcome says %d", evals, out.FullEvals)
	}
	if reduction := float64(out.Points) / float64(out.FullEvals); reduction < 50 {
		t.Errorf("%d full evals for %d points (%.0fx), want >=50x", out.FullEvals, out.Points, reduction)
	}
	if out.Energy != units.Energy(truth.energyAt(bc, bm)) {
		t.Errorf("outcome energy %v differs from measured optimum", out.Energy)
	}
}

// TestSweetSpotUnverified pins TopM<0: the model's own argmin, marked
// unverified, with only the anchor evaluations spent.
func TestSweetSpotUnverified(t *testing.T) {
	core, mem := testLadders(6, 6)
	truth := synthetic{core, mem}
	out, err := SweetSpot(core, mem, func(c, m int) (Sample, error) {
		return truth.sample(c, m), nil
	}, Options{TopM: -1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Verified {
		t.Error("TopM<0 outcome claims to be verified")
	}
	if out.FullEvals != 5 {
		t.Errorf("unverified search spent %d evals, want the 5 anchors", out.FullEvals)
	}
}

// TestSweetSpotFallback forces a degenerate fit (constant measurements make
// the search still well-defined, NaN times make the fit impossible) and
// checks the exhaustive fallback engages and stays correct.
func TestSweetSpotFallback(t *testing.T) {
	core, mem := testLadders(4, 3)
	evals := 0
	out, err := SweetSpot(core, mem, func(c, m int) (Sample, error) {
		evals++
		e := units.Energy(100 - float64(c*3+m)) // minimum at the last grid point
		return Sample{Core: c, Mem: m, Time: units.Seconds(math.NaN()), Energy: e}, nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Fallback || !out.Verified {
		t.Errorf("Fallback=%v Verified=%v, want fallback verified", out.Fallback, out.Verified)
	}
	if out.FullEvals != 12 || evals != 12 {
		t.Errorf("fallback spent %d evals (outcome %d), want all 12", evals, out.FullEvals)
	}
	if out.Core != 3 || out.Mem != 2 {
		t.Errorf("fallback spot (%d,%d), want (3,2)", out.Core, out.Mem)
	}
}

// TestSweetSpotEvalError propagates evaluation failures.
func TestSweetSpotEvalError(t *testing.T) {
	core, mem := testLadders(6, 6)
	boom := errors.New("boom")
	if _, err := SweetSpot(core, mem, func(c, m int) (Sample, error) {
		return Sample{}, boom
	}, Options{}); !errors.Is(err, boom) {
		t.Errorf("got %v, want the eval error", err)
	}
}

func TestStatsHelpers(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median = %g, want 2", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even Median = %g, want 2.5", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) is not NaN")
	}
	if got := Max([]float64{1, 5, 2}); got != 5 {
		t.Errorf("Max = %g, want 5", got)
	}
	if got := RelErr(11, 10); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelErr = %g, want 0.1", got)
	}
	if got := RelErr(0.5, 0); got != 0.5 {
		t.Errorf("RelErr with zero ref = %g, want absolute 0.5", got)
	}
	if got := Spearman([]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spearman monotone = %g, want 1", got)
	}
	if got := Spearman([]float64{1, 2, 3, 4}, []float64{4, 3, 2, 1}); math.Abs(got+1) > 1e-12 {
		t.Errorf("Spearman reversed = %g, want -1", got)
	}
	if got := Spearman([]float64{1, 1, 2, 2}, []float64{1, 1, 2, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spearman with ties = %g, want 1", got)
	}
	if !math.IsNaN(Spearman([]float64{1, 1}, []float64{1, 2})) {
		t.Error("Spearman on a constant series is not NaN")
	}
	if !math.IsNaN(Spearman([]float64{1}, []float64{1, 2})) {
		t.Error("Spearman on mismatched lengths is not NaN")
	}
}
