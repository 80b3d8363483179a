package governor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOndemandDefaults(t *testing.T) {
	o := NewOndemand()
	if o.UpThreshold != 0.80 || o.DownThreshold != 0.30 {
		t.Errorf("defaults = %+v", o)
	}
	if err := o.Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	if o.Name() != "ondemand" {
		t.Errorf("Name = %q", o.Name())
	}
}

func TestOndemandValidate(t *testing.T) {
	bads := []Ondemand{
		{UpThreshold: 0, DownThreshold: 0},
		{UpThreshold: 1.5, DownThreshold: 0.3},
		{UpThreshold: 0.8, DownThreshold: -0.1},
		{UpThreshold: 0.8, DownThreshold: 0.8},
		{UpThreshold: 0.8, DownThreshold: 0.9},
	}
	for i, o := range bads {
		if err := o.Validate(); err == nil {
			t.Errorf("bad thresholds %d accepted: %+v", i, o)
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

func TestBestPerformance(t *testing.T) {
	var p BestPerformance
	if p.Name() != "best-performance" {
		t.Errorf("Name = %q", p.Name())
	}
	for _, u := range []float64{0, 0.5, 1} {
		if got := p.Next(u, 0, 6); got != 5 {
			t.Errorf("Next(%v) = %d, want 5", u, got)
		}
	}
}

func TestPowerSave(t *testing.T) {
	var p PowerSave
	if p.Name() != "powersave" {
		t.Errorf("Name = %q", p.Name())
	}
	for _, u := range []float64{0, 0.5, 1} {
		if got := p.Next(u, 5, 6); got != 0 {
			t.Errorf("Next(%v) = %d, want 0", u, got)
		}
	}
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

func TestConservativeDefaults(t *testing.T) {
	c := NewConservative()
	if c.UpThreshold != 0.80 || c.DownThreshold != 0.20 {
		t.Errorf("defaults = %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	if c.Name() != "conservative" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestConservativeStepsUpGradually(t *testing.T) {
	c := NewConservative()
	level := 0
	steps := 0
	for level < 3 {
		level = c.Next(1.0, level, 4)
		steps++
		if steps > 10 {
			t.Fatal("never reached the top")
		}
	}
	if steps != 3 {
		t.Errorf("took %d decisions to climb 3 levels, want one per decision", steps)
	}
	// At the top it holds.
	if got := c.Next(1.0, 3, 4); got != 3 {
		t.Errorf("Next at top = %d", got)
	}
}

func TestConservativeStepsDown(t *testing.T) {
	c := NewConservative()
	if got := c.Next(0.05, 2, 4); got != 1 {
		t.Errorf("Next(0.05, 2) = %d, want 1", got)
	}
	if got := c.Next(0.05, 0, 4); got != 0 {
		t.Errorf("Next(0.05, 0) = %d, want 0", got)
	}
}

func TestConservativeHoldsInBand(t *testing.T) {
	c := NewConservative()
	for _, u := range []float64{0.20, 0.5, 0.80} {
		if got := c.Next(u, 2, 4); got != 2 {
			t.Errorf("Next(%v, 2) = %d, want hold", u, got)
		}
	}
}

func TestConservativeValidate(t *testing.T) {
	bads := []Conservative{
		{UpThreshold: 0, DownThreshold: 0},
		{UpThreshold: 0.8, DownThreshold: 0.9},
	}
	for i, c := range bads {
		if err := c.Validate(); err == nil {
			t.Errorf("bad thresholds %d accepted", i)
		}
	}
}

// Property: conservative moves at most one level per decision.
func TestConservativeOneStepProperty(t *testing.T) {
	c := NewConservative()
	f := func(utils []float64, n uint8) bool {
		nLevels := int(n)%8 + 1
		level := 0
		for _, u := range utils {
			u = math.Abs(math.Mod(u, 1))
			if math.IsNaN(u) {
				u = 0
			}
			next := c.Next(u, level, nLevels)
			if next < 0 || next >= nLevels {
				return false
			}
			d := next - level
			if d < -1 || d > 1 {
				return false
			}
			level = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestStateless pins the policies whose repeated ticks core.Run may skip:
// the four built-ins, as pointers and, where they implement Policy, as
// values; never a hardened or a foreign policy.
func TestStateless(t *testing.T) {
	for _, c := range []struct {
		p    Policy
		want bool
	}{
		{NewOndemand(), true},
		{NewConservative(), true},
		{BestPerformance{}, true},
		{&BestPerformance{}, true},
		{PowerSave{}, true},
		{&PowerSave{}, true},
		{Harden(NewOndemand()), false},
		{policyFunc(func(_ float64, current, _ int) int { return current }), false},
	} {
		if got := Stateless(c.p); got != c.want {
			t.Errorf("Stateless(%s %T) = %v, want %v", c.p.Name(), c.p, got, c.want)
		}
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
