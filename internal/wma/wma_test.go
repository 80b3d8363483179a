package wma

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, c := range []struct {
		n    int
		beta float64
	}{
		{0, 0.2}, {-1, 0.2}, {5, 0}, {5, 1}, {5, -0.3}, {5, 1.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %v) did not panic", c.n, c.beta)
				}
			}()
			New(c.n, c.beta)
		}()
	}
}

func TestInitialState(t *testing.T) {
	tab := New(4, 0.2)
	if tab.Len() != 4 {
		t.Errorf("Len = %d", tab.Len())
	}
	if tab.Beta() != 0.2 {
		t.Errorf("Beta = %v", tab.Beta())
	}
	for i := 0; i < 4; i++ {
		if tab.Weight(i) != 1 {
			t.Errorf("initial Weight(%d) = %v, want 1", i, tab.Weight(i))
		}
	}
	if tab.Best() != 0 {
		t.Errorf("initial Best = %d, want 0 (lowest-index tie-break)", tab.Best())
	}
	if tab.Rounds() != 0 {
		t.Errorf("Rounds = %d", tab.Rounds())
	}
}

func TestUpdateDiscountsLosers(t *testing.T) {
	tab := New(3, 0.2)
	// Expert 1 has zero loss; others lose maximally.
	if best := tab.Update([]float64{1, 0, 1}); best != 1 {
		t.Errorf("Update returned %d, want 1", best)
	}
	if tab.Best() != 1 {
		t.Errorf("Best = %d, want 1", tab.Best())
	}
	if w := tab.Weight(1); w != 1 {
		t.Errorf("winner weight = %v, want 1", w)
	}
	// Losers: 1 - 0.8*1 = 0.2.
	if w := tab.Weight(0); math.Abs(w-0.2) > 1e-12 {
		t.Errorf("loser weight = %v, want 0.2", w)
	}
	if tab.Rounds() != 1 {
		t.Errorf("Rounds = %d", tab.Rounds())
	}
}

func TestBestSwitchesWithEvidence(t *testing.T) {
	tab := New(2, 0.2)
	// Round 1-3: expert 0 better.
	for i := 0; i < 3; i++ {
		tab.Update([]float64{0.1, 0.5})
	}
	if tab.Best() != 0 {
		t.Fatalf("Best = %d, want 0", tab.Best())
	}
	// Workload change: expert 1 better. Needs enough rounds to overtake.
	for i := 0; i < 10; i++ {
		tab.Update([]float64{0.5, 0.1})
	}
	if tab.Best() != 1 {
		t.Errorf("Best = %d after regime change, want 1", tab.Best())
	}
}

func TestLossOutOfRangePanics(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		bad := bad
		tab := New(2, 0.2)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("loss %v did not panic", bad)
				}
			}()
			tab.Update([]float64{bad, bad})
		}()
	}
}

func TestReset(t *testing.T) {
	tab := New(2, 0.2)
	tab.Update([]float64{0, 1})
	tab.Reset()
	if tab.Weight(1) != 1 || tab.Rounds() != 0 {
		t.Errorf("Reset did not restore state")
	}
}

func TestWeightsCopy(t *testing.T) {
	tab := New(2, 0.2)
	w := tab.Weights()
	w[0] = 42
	if tab.Weight(0) == 42 {
		t.Error("Weights() aliases internal storage")
	}
}

func TestAutoRenormalization(t *testing.T) {
	tab := New(2, 0.2)
	// Drive both experts with heavy loss long enough to underflow without
	// renormalization: 0.2^k underflows around k=450.
	for i := 0; i < 5000; i++ {
		tab.Update([]float64{1, 0.9})
	}
	if tab.Best() != 1 {
		t.Errorf("Best = %d, want 1", tab.Best())
	}
	if w := tab.Weight(1); w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
		t.Errorf("weight degenerated to %v", w)
	}
}

func TestRenormalizePreservesArgmaxAndRatios(t *testing.T) {
	tab := New(3, 0.2)
	tab.Update([]float64{0.3, 0.1, 0.9})
	ratioBefore := tab.Weight(0) / tab.Weight(1)
	bestBefore := tab.Best()
	tab.Renormalize()
	if tab.Best() != bestBefore {
		t.Errorf("argmax changed: %d -> %d", bestBefore, tab.Best())
	}
	ratioAfter := tab.Weight(0) / tab.Weight(1)
	if math.Abs(ratioBefore-ratioAfter) > 1e-12 {
		t.Errorf("ratio changed: %v -> %v", ratioBefore, ratioAfter)
	}
	if m := tab.Weight(tab.Best()); math.Abs(m-1) > 1e-12 {
		t.Errorf("max weight after renormalize = %v, want 1", m)
	}
}

func TestRenormalizeAllZeroResets(t *testing.T) {
	tab := New(2, 0.5)
	// Force exact zeros: loss 1 with beta 0.5 gives factor 0.5, never zero;
	// so zero out via the panic-free path: repeated heavy decay then manual
	// weights — instead construct the corner with loss=1, beta→ (1-(1-β)) >0.
	// The all-zero case can only arise from float underflow of *all* weights
	// between renorm checks; emulate by calling Renormalize on a fresh table
	// after annihilating weights through the public API is impossible, so we
	// only verify Renormalize on a healthy table is harmless here.
	tab.Renormalize()
	if tab.Weight(0) != 1 || tab.Weight(1) != 1 {
		t.Error("Renormalize perturbed fresh table")
	}
}

// Property: weights always stay in (0, 1] and Best is always a valid index.
func TestWeightBoundsProperty(t *testing.T) {
	f := func(losses []float64, betaSeed uint8) bool {
		beta := 0.05 + 0.9*float64(betaSeed)/255
		tab := New(4, beta)
		for _, l := range losses {
			l = math.Abs(math.Mod(l, 1)) // map into [0,1)
			if math.IsNaN(l) {
				l = 0
			}
			round := make([]float64, tab.Len())
			for i := range round {
				round[i] = math.Min(l*float64(i+1)/4, 1)
			}
			tab.Update(round)
		}
		b := tab.Best()
		if b < 0 || b >= tab.Len() {
			return false
		}
		for i := 0; i < tab.Len(); i++ {
			w := tab.Weight(i)
			if !(w > 0) || w > 1 || math.IsNaN(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property (WMA soundness): an expert with strictly lower loss every round
// ends with a weight at least as high as every other expert.
func TestDominantExpertWinsProperty(t *testing.T) {
	f := func(rounds uint8, winner uint8) bool {
		n := 5
		w := int(winner) % n
		tab := New(n, 0.2)
		round := make([]float64, n)
		for i := range round {
			round[i] = 0.6
		}
		round[w] = 0.1
		for r := 0; r < int(rounds)%50+1; r++ {
			tab.Update(round)
		}
		return tab.Best() == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
