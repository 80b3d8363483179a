package governor

import (
	"math"
	"testing"
)

// TestHardenedHoldLastGood: non-finite samples replay the last good
// utilization instead of reaching the wrapped policy.
func TestHardenedHoldLastGood(t *testing.T) {
	var seen []float64
	spy := policyFunc(func(util float64, current, nLevels int) int {
		seen = append(seen, util)
		return current
	})
	h := Harden(spy)
	h.Next(0.9, 1, 4)          // good
	h.Next(math.NaN(), 1, 4)   // dropped → replay 0.9
	h.Next(math.Inf(1), 1, 4)  // dropped → replay 0.9
	h.Next(0.2, 1, 4)          // good
	h.Next(math.Inf(-1), 1, 4) // dropped → replay 0.2
	want := []float64{0.9, 0.9, 0.9, 0.2, 0.2}
	if len(seen) != len(want) {
		t.Fatalf("policy saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("policy saw %v, want %v", seen, want)
		}
	}
	if h.Holds() != 3 {
		t.Fatalf("Holds = %d, want 3", h.Holds())
	}
}

// TestHardenedBeforeFirstGoodSample: the pre-sample fallback is idle (0),
// matching dvfs.sanitizeUtil.
func TestHardenedBeforeFirstGoodSample(t *testing.T) {
	var seen float64 = -1
	h := Harden(policyFunc(func(util float64, current, nLevels int) int {
		seen = util
		return current
	}))
	h.Next(math.NaN(), 2, 4)
	if seen != 0 {
		t.Fatalf("policy saw %v before any good sample, want 0", seen)
	}
}

// TestHardenedClampsOutput: even a misbehaving policy cannot push an
// out-of-range level past the wrapper.
func TestHardenedClampsOutput(t *testing.T) {
	h := Harden(policyFunc(func(float64, int, int) int { return 99 }))
	if got := h.Next(0.5, 1, 4); got != 3 {
		t.Fatalf("Next = %d, want clamped 3", got)
	}
	h = Harden(policyFunc(func(float64, int, int) int { return -7 }))
	if got := h.Next(0.5, 1, 4); got != 0 {
		t.Fatalf("Next = %d, want clamped 0", got)
	}
}

// TestHardenedName pins the trace label format.
func TestHardenedName(t *testing.T) {
	if got := Harden(NewOndemand()).Name(); got != "hardened(ondemand)" {
		t.Fatalf("Name = %q", got)
	}
}

// policyFunc adapts a function to Policy for tests.
type policyFunc func(util float64, current, nLevels int) int

func (f policyFunc) Next(util float64, current, nLevels int) int {
	return next(f, util, current, nLevels)
}
func (policyFunc) Name() string { return "spy" }
func (f policyFunc) decide(util float64, current, nLevels int, _ *Tally) int {
	return f(util, current, nLevels)
}

// FuzzGovernorNext feeds arbitrary utilizations and levels into the
// hardened ondemand governor and asserts no panic and in-range output.
func FuzzGovernorNext(f *testing.F) {
	f.Add(0.5, 1, 4)
	f.Add(math.NaN(), -3, 6)
	f.Add(math.Inf(1), 99, 1)
	f.Add(-2.5, 0, 3)
	h := Harden(NewOndemand())
	f.Fuzz(func(t *testing.T, util float64, current, nLevels int) {
		if nLevels <= 0 || nLevels > 64 {
			t.Skip()
		}
		if got := h.Next(util, current, nLevels); got < 0 || got >= nLevels {
			t.Fatalf("%s.Next(%v,%d,%d) = %d out of range", h.Name(), util, current, nLevels, got)
		}
	})
}
