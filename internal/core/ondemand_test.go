package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOndemandThresholds(t *testing.T) {
	// Linux's 0.80 up-threshold and the 0.30 down-threshold, each strict.
	for _, c := range []struct {
		util float64
		want int
		jump bool
	}{
		{0.80, 2, false},
		{math.Nextafter(0.80, 1), 3, true},
		{0.30, 2, false},
		{math.Nextafter(0.30, 0), 1, false},
	} {
		if got, jump := ondemand(c.util, 2, 4); got != c.want || jump != c.jump {
			t.Errorf("ondemand(%v, 2, 4) = %d, %v, want %d, %v", c.util, got, jump, c.want, c.jump)
		}
	}
}

func TestOndemandJumpsToMax(t *testing.T) {
	// Above the up-threshold, jump straight to the top from any level,
	// the top included.
	for cur := 0; cur < 4; cur++ {
		if got, jump := ondemand(0.95, cur, 4); got != 3 || !jump {
			t.Errorf("ondemand(0.95, %d, 4) = %d, %v, want 3, true", cur, got, jump)
		}
	}
}

func TestOndemandStepsDownOneLevel(t *testing.T) {
	for _, c := range []struct{ cur, want int }{
		{3, 2},
		{1, 0},
		{0, 0}, // already at the bottom: stay
	} {
		if got, jump := ondemand(0.1, c.cur, 4); got != c.want || jump {
			t.Errorf("ondemand(0.1, %d, 4) = %d, %v, want %d, false", c.cur, got, jump, c.want)
		}
	}
}

func TestOndemandHoldsInBand(t *testing.T) {
	for _, u := range []float64{0.30, 0.5, 0.79, 0.80} {
		if got, jump := ondemand(u, 2, 4); got != 2 || jump {
			t.Errorf("ondemand(%v, 2, 4) = %d, %v, want hold at 2", u, got, jump)
		}
	}
}

func TestOndemandSpinWaitPinsMax(t *testing.T) {
	// The paper's observation: synchronous CUDA waits keep utilization at
	// 100%, so ondemand can never throttle during GPU phases.
	level := 0
	for i := 0; i < 10; i++ {
		level, _ = ondemand(1.0, level, 4)
	}
	if level != 3 {
		t.Errorf("spin-wait level = %d, want pinned at 3", level)
	}
}

func TestOndemandDescendsWhenIdle(t *testing.T) {
	level := 3
	steps := 0
	for level > 0 {
		level, _ = ondemand(0.0, level, 4)
		steps++
		if steps > 10 {
			t.Fatal("never reached bottom")
		}
	}
	if steps != 3 {
		t.Errorf("took %d steps to descend 3 levels, want 3", steps)
	}
}

// Property: ondemand never returns an out-of-range level and never moves
// down by more than one step per decision.
func TestOndemandInvariantsProperty(t *testing.T) {
	f := func(utils []float64, n uint8) bool {
		nLevels := int(n)%8 + 1
		level := nLevels - 1
		for _, u := range utils {
			u = math.Abs(math.Mod(u, 1))
			if math.IsNaN(u) {
				u = 0
			}
			next, _ := ondemand(u, level, nLevels)
			if next < 0 || next >= nLevels {
				return false
			}
			if next < level-1 {
				return false // dropped more than one step
			}
			level = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestGovTallyRepeat checks that counting n repeats of a decision, as a
// tick that skips n idle ticks does, tallies what n more ticks deciding
// the same would.
func TestGovTallyRepeat(t *testing.T) {
	for _, util := range []float64{1, 0.5, 0} {
		var want, got govTally
		for i := 0; i < 4; i++ {
			_, jump := ondemand(util, 3, 4)
			want.count(1, jump)
		}
		_, jump := ondemand(util, 3, 4)
		got.count(1, jump)
		got.count(3, jump)
		if got != want {
			t.Errorf("util %v: one decision and three repeats tally %+v, four decisions %+v", util, got, want)
		}
	}
}

// TestHoldCPUSampleLastGood: non-finite samples replay the last good
// utilization instead of reaching ondemand.
func TestHoldCPUSampleLastGood(t *testing.T) {
	var f framework
	in := []float64{0.9, math.NaN(), math.Inf(1), 0.2, math.Inf(-1)}
	want := []float64{0.9, 0.9, 0.9, 0.2, 0.2}
	for i, u := range in {
		if got := f.holdCPUSample(u); got != want[i] {
			t.Fatalf("sample %d (%v): ondemand sees %v, want %v", i, u, got, want[i])
		}
	}
	if f.gov.holds != 3 {
		t.Fatalf("holds = %d, want 3", f.gov.holds)
	}
}

// TestHoldCPUSampleBeforeFirstGood: the pre-sample fallback is idle (0),
// matching dvfs.Guard.Sample.
func TestHoldCPUSampleBeforeFirstGood(t *testing.T) {
	var f framework
	if got := f.holdCPUSample(math.NaN()); got != 0 {
		t.Fatalf("ondemand sees %v before any good sample, want 0", got)
	}
	if f.gov.holds != 1 {
		t.Fatalf("holds = %d, want 1", f.gov.holds)
	}
}

// FuzzGovernorNext feeds arbitrary utilizations through hold-last-good
// into ondemand at every level of ladders up to 64 P-states, and asserts a
// held sample in [0,1] and a next level that is the top (exactly when the
// sample is above the up-threshold), the current level or the one below.
func FuzzGovernorNext(f *testing.F) {
	f.Add(0.5, 1, 4)
	f.Add(math.NaN(), -3, 6)
	f.Add(math.Inf(1), 99, 1)
	f.Add(-2.5, 0, 3)
	var fw framework
	f.Fuzz(func(t *testing.T, util float64, current, nLevels int) {
		if nLevels <= 0 || nLevels > 64 {
			t.Skip()
		}
		// Run passes cpu.Level(), always on the ladder.
		current = (current%nLevels + nLevels) % nLevels
		u := fw.holdCPUSample(util)
		if !(u >= 0 && u <= 1) {
			t.Fatalf("holdCPUSample(%v) = %v, outside [0,1]", util, u)
		}
		next, jump := ondemand(u, current, nLevels)
		if jump != (u > upThreshold) || jump && next != nLevels-1 ||
			!jump && next != current && next != current-1 || next < 0 {
			t.Fatalf("ondemand(%v, %d, %d) = %d, %v", u, current, nLevels, next, jump)
		}
	})
}
