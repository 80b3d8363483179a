package dvfs

import (
	"math"
	"slices"
	"testing"
)

func alwaysFail() (TransitionResult, int)  { return TransitionFailed, 0 }
func alwaysApply() (TransitionResult, int) { return TransitionApplied, 0 }

// TestGuardWatchdogFiresAfterK: the backoff waits 1 epoch, then 2, so
// attempts fall at epochs 0, 2 and 5; the third consecutive failure — not
// the second — trips the watchdog, and the failsafe decision is pinned for
// failsafeHold epochs before normal control resumes.
func TestGuardWatchdogFiresAfterK(t *testing.T) {
	failsafe := Decision{CoreLevel: 9, MemLevel: 9}
	old := Decision{CoreLevel: 0, MemLevel: 0}
	g := NewGuard(failsafe, old)
	want := Decision{CoreLevel: 2, MemLevel: 1}

	var attempts []int
	epoch := 0
	for ; epoch < 50 && g.Counts().WatchdogTrips == 0; epoch++ {
		d := g.Step(want, func() (TransitionResult, int) {
			attempts = append(attempts, epoch)
			return TransitionFailed, 0
		})
		if g.Counts().WatchdogTrips == 0 && d != old {
			t.Fatalf("epoch %d: enforced %+v before watchdog, want old level", epoch, d)
		}
	}
	if got := g.Counts().WatchdogTrips; got != 1 {
		t.Fatalf("WatchdogTrips = %d, want 1", got)
	}
	if wantAt := []int{0, 2, 5}; !slices.Equal(attempts, wantAt) {
		t.Fatalf("failed attempts at epochs %v before the trip, want %v", attempts, wantAt)
	}
	if !g.InFailsafe() {
		t.Fatal("not in failsafe immediately after trip")
	}
	if g.Enforced() != failsafe {
		t.Fatalf("Enforced = %+v after trip, want failsafe %+v", g.Enforced(), failsafe)
	}
	// The failsafe is pinned for failsafeHold epochs: the gate must not be
	// consulted and the decision must stay failsafe.
	for i := 0; i < failsafeHold; i++ {
		if d := g.Step(want, func() (TransitionResult, int) {
			t.Fatal("gate called during failsafe hold")
			return TransitionApplied, 0
		}); d != failsafe {
			t.Fatalf("hold epoch %d: enforced %+v, want failsafe", i, d)
		}
	}
	// Hold expired: normal control resumes and a healthy gate applies.
	if d := g.Step(want, alwaysApply); d != want {
		t.Fatalf("after hold: enforced %+v, want %+v", d, want)
	}
	if g.InFailsafe() {
		t.Fatal("still in failsafe after hold expired and control resumed")
	}
}

// TestGuardBackoff: after a failure the guard holds for 1 epoch, then 2,
// calling the gate only when an attempt is due, and a watchdog trip resets
// the backoff, so the episode after the failsafe hold starts over at 1.
func TestGuardBackoff(t *testing.T) {
	g := NewGuard(Decision{CoreLevel: 5}, Decision{})
	want := Decision{CoreLevel: 3, MemLevel: 2}
	var attemptEpochs []int
	for epoch := 0; epoch < 20; epoch++ {
		g.Step(want, func() (TransitionResult, int) {
			attemptEpochs = append(attemptEpochs, epoch)
			return TransitionFailed, 0
		})
	}
	// Attempts at 0, 2 and 5 trip the watchdog; the hold covers epochs 6
	// to 13; the next episode attempts at 14, 16 and 19.
	wantEpochs := []int{0, 2, 5, 6 + failsafeHold, 8 + failsafeHold, 11 + failsafeHold}
	if !slices.Equal(attemptEpochs, wantEpochs) {
		t.Fatalf("attempts at %v, want %v", attemptEpochs, wantEpochs)
	}
	if got := g.Counts().WatchdogTrips; got != 2 {
		t.Fatalf("WatchdogTrips = %d, want 2", got)
	}
	// Every attempt after the first of an episode is a retry.
	if got := g.Counts().Retries; got != 4 {
		t.Fatalf("Retries = %d, want 4", got)
	}
}

// TestGuardDeferredLands: a deferred transition takes effect exactly delay
// epochs later, holding the old level in between.
func TestGuardDeferredLands(t *testing.T) {
	g := NewGuard(Decision{CoreLevel: 5}, Decision{CoreLevel: 1})
	want := Decision{CoreLevel: 4, MemLevel: 3}
	const delay = 3
	d := g.Step(want, func() (TransitionResult, int) { return TransitionDeferred, delay })
	if d != (Decision{CoreLevel: 1}) {
		t.Fatalf("deferred write enforced %+v immediately, want old level", d)
	}
	// While the write is in flight the guard must not issue another: the
	// gate would fail the test if consulted. The transition lands on the
	// delay-th subsequent epoch.
	noGate := func() (TransitionResult, int) {
		t.Fatal("gate called while a deferred write was in flight")
		return TransitionApplied, 0
	}
	for i := 1; i <= delay; i++ {
		d = g.Step(want, noGate)
		if i < delay && d != (Decision{CoreLevel: 1}) {
			t.Fatalf("epoch %d: enforced %+v, want old level", i, d)
		}
	}
	if d != want {
		t.Fatalf("after %d epochs: enforced %+v, want %+v landed", delay, d, want)
	}
	if g.Counts().DeferredApplies != 1 {
		t.Fatalf("DeferredApplies = %d, want 1", g.Counts().DeferredApplies)
	}
}

// TestGuardSampleHoldLastGood: non-finite samples are replaced by the last
// good pair; before any good sample the fallback is idle (0, 0).
func TestGuardSampleHoldLastGood(t *testing.T) {
	g := NewGuard(Decision{}, Decision{})
	uc, um, held := g.Sample(math.NaN(), 0.5)
	if !held || uc != 0 || um != 0 {
		t.Fatalf("first dropped sample: (%v,%v,held=%v), want (0,0,true)", uc, um, held)
	}
	if uc, um, held = g.Sample(0.7, 0.4); held || uc != 0.7 || um != 0.4 {
		t.Fatalf("good sample: (%v,%v,held=%v)", uc, um, held)
	}
	if uc, um, held = g.Sample(math.Inf(1), math.NaN()); !held || uc != 0.7 || um != 0.4 {
		t.Fatalf("dropped sample after good: (%v,%v,held=%v), want (0.7,0.4,true)", uc, um, held)
	}
	if g.Counts().HeldSamples != 2 {
		t.Fatalf("HeldSamples = %d, want 2", g.Counts().HeldSamples)
	}
}

// TestGuardStableWantIsFree: when the controller keeps wanting the level
// already in force, the gate is never consulted and failure state resets.
func TestGuardStableWantIsFree(t *testing.T) {
	g := NewGuard(Decision{CoreLevel: 5}, Decision{CoreLevel: 2})
	// Two failures toward level 3 (not enough to trip)…
	g.Step(Decision{CoreLevel: 3}, alwaysFail)
	g.Step(Decision{CoreLevel: 3}, alwaysFail) // backoff epoch, no attempt
	// …then the controller changes its mind back to the in-force level.
	for i := 0; i < 5; i++ {
		if d := g.Step(Decision{CoreLevel: 2}, func() (TransitionResult, int) {
			t.Fatal("gate called for a no-op decision")
			return TransitionApplied, 0
		}); d != (Decision{CoreLevel: 2}) {
			t.Fatalf("no-op epoch enforced %+v", d)
		}
	}
	// The earlier failures must not count toward a later episode.
	g.Step(Decision{CoreLevel: 4}, alwaysFail)
	if g.Counts().WatchdogTrips != 0 {
		t.Fatal("watchdog tripped across a reset episode")
	}
}

// TestGuardAllocFree: Sample and Step run inside the DVFS epoch tick and
// must not allocate.
func TestGuardAllocFree(t *testing.T) {
	g := NewGuard(Decision{CoreLevel: 5, MemLevel: 5}, Decision{})
	want := Decision{CoreLevel: 1, MemLevel: 1}
	gate := func() (TransitionResult, int) { return TransitionFailed, 0 }
	var i int
	allocs := testing.AllocsPerRun(1000, func() {
		g.Sample(float64(i%3)/3, math.NaN())
		g.Step(want, gate)
		want.CoreLevel = (want.CoreLevel + 1) % 4
		i++
	})
	if allocs != 0 {
		t.Fatalf("guard hot path allocates %.1f times per epoch, want 0", allocs)
	}
}
