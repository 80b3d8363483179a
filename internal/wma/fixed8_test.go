package wma

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFixed8Validation(t *testing.T) {
	for _, c := range []struct {
		n    int
		beta float64
	}{{0, 0.2}, {5, 0}, {5, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFixed8(%d, %v) did not panic", c.n, c.beta)
				}
			}()
			NewFixed8(c.n, c.beta)
		}()
	}
}

func TestFixed8InitialState(t *testing.T) {
	tab := NewFixed8(36, 0.2)
	if tab.Len() != 36 {
		t.Errorf("Len = %d", tab.Len())
	}
	for i := 0; i < 36; i++ {
		if tab.Weight(i) != 1 {
			t.Errorf("initial Weight(%d) = %v", i, tab.Weight(i))
		}
	}
	if tab.Best() != 0 {
		t.Errorf("initial Best = %d", tab.Best())
	}
	if tab.SizeBytes() != 72 {
		t.Errorf("SizeBytes = %d, want 72 (Q8.8, 36 experts)", tab.SizeBytes())
	}
}

func TestFixed8DiscountsLosers(t *testing.T) {
	tab := NewFixed8(3, 0.2)
	if best := tab.Update([]float64{1, 0, 1}); best != 1 {
		t.Errorf("Update returned %d, want 1", best)
	}
	if tab.Best() != 1 {
		t.Errorf("Best = %d, want 1", tab.Best())
	}
	// Losers: factor = 1 − 0.8 ≈ 0.2 in Q0.8 (51/256 ≈ 0.199).
	if w := tab.Weight(0); math.Abs(w-0.2) > 0.01 {
		t.Errorf("loser weight = %v, want ~0.2", w)
	}
}

func TestFixed8LossOutOfRangePanics(t *testing.T) {
	tab := NewFixed8(2, 0.2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tab.Update([]float64{1.5, 1.5})
}

func TestFixed8SurvivesLongRuns(t *testing.T) {
	tab := NewFixed8(2, 0.2)
	for i := 0; i < 10000; i++ {
		tab.Update([]float64{1, 0.9})
	}
	if tab.Best() != 1 {
		t.Errorf("Best = %d after long decay, want 1", tab.Best())
	}
	if w := tab.Weight(1); w <= 0 {
		t.Errorf("winner weight decayed to %v", w)
	}
}

func TestFixed8ResetAndRounds(t *testing.T) {
	tab := NewFixed8(2, 0.2)
	tab.Update([]float64{0, 1})
	if tab.Rounds() != 1 {
		t.Errorf("Rounds = %d", tab.Rounds())
	}
	tab.Reset()
	if tab.Rounds() != 0 || tab.Weight(1) != 1 {
		t.Error("Reset incomplete")
	}
}

// fixed8Excess runs the float and fixed-point tables side by side under
// nine steady per-expert losses drawn from seed, for rounds%60+5 rounds,
// and returns how much higher the fixed table's chosen expert's loss is
// than the float table's choice.
func fixed8Excess(seed uint16, rounds uint8) float64 {
	n := 9
	losses := make([]float64, n)
	s := seed
	for i := range losses {
		s = s*31421 + 6927
		losses[i] = float64(s%1000) / 1000
	}
	fl := New(n, 0.2)
	fx := NewFixed8(n, 0.2)
	r := int(rounds)%60 + 5
	for i := 0; i < r; i++ {
		fl.Update(losses)
		fx.Update(losses)
	}
	return losses[fx.Best()] - losses[fl.Best()]
}

// Property: the paper's §VI claim — 8-bit precision is accurate enough to
// pick the largest weight. Under steady per-expert losses the fixed
// table's chosen expert must have a loss less than 2/256 above the float
// table's choice, the resolution Fixed8Table.Update's arithmetic gives:
//
//   - A loss l is quantized to l8 = round(256·l), so
//     l ∈ [(l8−½)/256, (l8+½)/256).
//   - The factor is 256 − p with penalty p = (205·l8) >> 8, where
//     205 = 256 − round(0.2·256) is (1−β) in Q0.8. The shift truncates,
//     and 205 < 256, so two consecutive l8 can share a penalty
//     (205·55>>8 = 205·56>>8 = 44: losses 0.213 and 0.220 get the same
//     factor). Three cannot: l8' ≥ l8+2 gives 205·l8' ≥ 205·l8 + 410,
//     at least one more penalty step.
//   - Experts with equal factors get equal weights every round, so the
//     table cannot order them and breaks the tie to the lowest index.
//     The float table picks the least-loss expert; one sharing its factor
//     has an l8 at most one higher, so its loss is below
//     (l8+1+½)/256 − (l8−½)/256 = 2/256 above the float choice.
//   - The factor never increases with the loss, and the Q8.8 update
//     w·f >> 8 and the renormalizing rescale are monotone, so an expert
//     with a smaller factor never out-weighs the least-loss expert. It
//     could only tie if truncation merged two weights. Enumerating this
//     test's whole input domain (65,536 seeds × 60 round counts,
//     3,932,160 inputs) finds no such merge: every input above the
//     earlier 1.5/256 bound (3,840 of them, worst 1.79/256) is an
//     equal-factor tie.
func TestFixed8MatchesFloatArgmaxProperty(t *testing.T) {
	const bound = 2.0 / 256
	// Equal-factor ties above the earlier 1.5/256 bound: the worst excess
	// in the domain (1.79/256) and a case drawn by quick.Check.
	for _, c := range []struct {
		seed   uint16
		rounds uint8
	}{{0x56ef, 0}, {0xf8f7, 0xa2}} {
		if ex := fixed8Excess(c.seed, c.rounds); ex >= bound || ex <= 1.5/256 {
			t.Errorf("seed=%#x rounds=%#x: excess %.3f/256, want in (1.5/256, 2/256)", c.seed, c.rounds, ex*256)
		}
	}
	f := func(seed uint16, rounds uint8) bool {
		return fixed8Excess(seed, rounds) < bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
