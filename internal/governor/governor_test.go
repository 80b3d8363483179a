package governor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOndemandDefaults(t *testing.T) {
	o := NewOndemand()
	if o.Name() != "ondemand" {
		t.Errorf("Name = %q", o.Name())
	}
	// Linux's 0.80 up-threshold and the 0.30 down-threshold, each strict.
	for _, c := range []struct {
		util float64
		want int
	}{
		{0.80, 2},
		{math.Nextafter(0.80, 1), 3},
		{0.30, 2},
		{math.Nextafter(0.30, 0), 1},
	} {
		if got := o.Next(c.util, 2, 4); got != c.want {
			t.Errorf("Next(%v, 2, 4) = %d, want %d", c.util, got, c.want)
		}
	}
}

func TestOndemandJumpsToMax(t *testing.T) {
	o := NewOndemand()
	// Above the up-threshold, jump straight to the top from any level.
	for cur := 0; cur < 4; cur++ {
		if got := o.Next(0.95, cur, 4); got != 3 {
			t.Errorf("Next(0.95, %d, 4) = %d, want 3", cur, got)
		}
	}
}

func TestOndemandStepsDownOneLevel(t *testing.T) {
	o := NewOndemand()
	if got := o.Next(0.1, 3, 4); got != 2 {
		t.Errorf("Next(0.1, 3, 4) = %d, want 2", got)
	}
	if got := o.Next(0.1, 1, 4); got != 0 {
		t.Errorf("Next(0.1, 1, 4) = %d, want 0", got)
	}
	// Already at the bottom: stay.
	if got := o.Next(0.1, 0, 4); got != 0 {
		t.Errorf("Next(0.1, 0, 4) = %d, want 0", got)
	}
}

func TestOndemandHoldsInBand(t *testing.T) {
	o := NewOndemand()
	for _, u := range []float64{0.30, 0.5, 0.79, 0.80} {
		if got := o.Next(u, 2, 4); got != 2 {
			t.Errorf("Next(%v, 2, 4) = %d, want hold at 2", u, got)
		}
	}
}

func TestOndemandSpinWaitPinsMax(t *testing.T) {
	// The paper's observation: synchronous CUDA waits keep utilization at
	// 100%, so ondemand can never throttle during GPU phases.
	o := NewOndemand()
	level := 0
	for i := 0; i < 10; i++ {
		level = o.Next(1.0, level, 4)
	}
	if level != 3 {
		t.Errorf("spin-wait level = %d, want pinned at 3", level)
	}
}

func TestOndemandDescendsWhenIdle(t *testing.T) {
	o := NewOndemand()
	level := 3
	steps := 0
	for level > 0 {
		level = o.Next(0.0, level, 4)
		steps++
		if steps > 10 {
			t.Fatal("never reached bottom")
		}
	}
	if steps != 3 {
		t.Errorf("took %d steps to descend 3 levels, want 3", steps)
	}
}

func TestOndemandClampsCurrent(t *testing.T) {
	o := NewOndemand()
	if got := o.Next(0.5, -5, 4); got != 0 {
		t.Errorf("Next with current=-5 = %d, want 0", got)
	}
	if got := o.Next(0.5, 99, 4); got != 3 {
		t.Errorf("Next with current=99 = %d, want 3", got)
	}
}

func TestOndemandZeroLevelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewOndemand().Next(0.5, 0, 0)
}

// Property: ondemand never returns an out-of-range level and never moves
// down by more than one step per decision.
func TestOndemandInvariantsProperty(t *testing.T) {
	o := NewOndemand()
	f := func(utils []float64, n uint8) bool {
		nLevels := int(n)%8 + 1
		level := nLevels - 1
		for _, u := range utils {
			u = math.Abs(math.Mod(u, 1))
			if math.IsNaN(u) {
				u = 0
			}
			next := o.Next(u, level, nLevels)
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

// TestTallyCredit checks that crediting n repeats of a decision counts what
// n more calls of the bound decision function would.
func TestTallyCredit(t *testing.T) {
	for _, util := range []float64{1, 0.5, 0} {
		var want, got Tally
		decideWant, decideGot := want.Bind(NewOndemand()), got.Bind(NewOndemand())
		for i := 0; i < 4; i++ {
			decideWant(util, 3, 4)
		}
		before := got
		decideGot(util, 3, 4)
		got.Credit(before, 3)
		if got != want {
			t.Errorf("util %v: credited tally %+v, four decisions %+v", util, got, want)
		}
	}
}
