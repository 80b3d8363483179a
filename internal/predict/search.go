package predict

import (
	"errors"
	"time"

	"greengpu/internal/units"
)

// DefaultTopM is the number of model-ranked candidates a search verifies by
// full evaluation when Options.TopM is zero. Together with the five
// corner-and-center anchors it budgets nine full evaluations per search — a
// 64× reduction on a 24×24 ladder.
const DefaultTopM = 4

// Options configures a sweet-spot search. The zero value verifies
// DefaultTopM candidates.
type Options struct {
	// TopM is how many of the model's best-ranked unevaluated candidates
	// are verified by full evaluation before the spot is chosen; 0 selects
	// DefaultTopM. A negative TopM disables verification entirely: the
	// returned spot is the model's prediction, marked Verified=false.
	TopM int
}

// topM resolves the TopM default.
func (o Options) topM() int {
	if o.TopM == 0 {
		return DefaultTopM
	}
	return o.TopM
}

// Outcome is a sweet-spot search's result.
type Outcome struct {
	// Core and Mem are the chosen ladder point.
	Core, Mem int
	// Verified reports whether the chosen point's Time/Energy come from a
	// real evaluation (true for every search with TopM >= 0, and for
	// degenerate-fit fallbacks) or from the model alone.
	Verified bool
	// Fallback reports a degenerate fit: the search evaluated the whole
	// ladder exhaustively instead of trusting a model.
	Fallback bool
	// FullEvals counts eval invocations: anchors and top-M verification
	// (or the whole ladder on fallback). Deterministic for a given ladder
	// and options — caching layers above may satisfy the invocations
	// without simulating.
	FullEvals int
	// Points counts ladder points, the denominator of the evaluation-
	// reduction ratio.
	Points int
	// Time and Energy are the chosen point's runtime and total energy —
	// measured when Verified, model-predicted otherwise.
	Time   time.Duration
	Energy units.Energy
}

// EvalFunc fully evaluates one ladder point — in this repository, a closed-
// form fast-path simulation through internal/sweep, memoized by
// internal/runcache. Errors abort the search.
type EvalFunc func(core, mem int) (Sample, error)

// SweetSpot finds the least-energy ladder point using O(anchors) full
// evaluations: fit a model from the corner-and-center anchors, rank every
// point by predicted energy in closed form, verify the top-M candidates by
// full evaluation, and return the best evaluated point. Ties and orderings
// follow the exhaustive studies' convention — grid points are visited
// core-outer/memory-inner and strict less-than keeps the earliest minimum —
// so when the true optimum is inside the verified set the outcome is
// identical to brute force, point and measurement alike.
//
// A degenerate anchor set (ErrDegenerate from Fit) falls back to exhaustive
// evaluation; any other evaluation or fit error aborts.
func SweetSpot(coreFreqs, memFreqs []units.Frequency, eval EvalFunc, opts Options) (Outcome, error) {
	nc, nm := len(coreFreqs), len(memFreqs)
	out := Outcome{Points: nc * nm}
	if nc == 0 || nm == 0 {
		return out, errors.New("predict: empty frequency ladder")
	}
	evaluated := map[Anchor]Sample{}
	evalOnce := func(a Anchor) (Sample, error) {
		if s, ok := evaluated[a]; ok {
			return s, nil
		}
		out.FullEvals++
		metricFullEvals.Inc()
		s, err := eval(a.Core, a.Mem)
		if err != nil {
			return Sample{}, err
		}
		evaluated[a] = s
		return s, nil
	}

	anchors := Anchors(coreFreqs, memFreqs)
	samples := make([]Sample, 0, len(anchors))
	for _, a := range anchors {
		s, err := evalOnce(a)
		if err != nil {
			return out, err
		}
		samples = append(samples, s)
	}

	model, err := Fit(coreFreqs, memFreqs, samples)
	if errors.Is(err, ErrDegenerate) {
		// Evaluate every grid point (evalOnce skips the anchors already
		// measured) and choose the best.
		metricFallbacks.Inc()
		for c := 0; c < nc; c++ {
			for m := 0; m < nm; m++ {
				if _, err := evalOnce(Anchor{c, m}); err != nil {
					return out, err
				}
			}
		}
		out.Fallback = true
		chooseEvaluated(&out, nc, nm, evaluated)
		return out, nil
	}
	if err != nil {
		return out, err
	}

	if opts.TopM < 0 {
		// Unverified mode: trust the model's argmin over the whole grid
		// (a nil evaluated set keeps the anchors in the ranking).
		best := topCandidates(model, nc, nm, nil, 1)[0]
		out.Core, out.Mem = best.Core, best.Mem
		out.Time = model.Time(best.Core, best.Mem)
		out.Energy = model.Energy(best.Core, best.Mem)
		return out, nil
	}

	// Verify the model's top-M unevaluated candidates, then choose the
	// best evaluated point in grid order.
	for _, a := range topCandidates(model, nc, nm, evaluated, opts.topM()) {
		if _, err := evalOnce(a); err != nil {
			return out, err
		}
	}
	chooseEvaluated(&out, nc, nm, evaluated)
	return out, nil
}

// topCandidates returns the k unevaluated grid points with the smallest
// predicted energy, by repeated grid-order scans (k is tiny; clarity over
// asymptotics). Ties keep the earliest point.
func topCandidates(m *Model, nc, nm int, evaluated map[Anchor]Sample, k int) []Anchor {
	picked := map[Anchor]bool{}
	var out []Anchor
	for len(out) < k {
		best := Anchor{-1, -1}
		bestV := 0.0
		for c := 0; c < nc; c++ {
			for m2 := 0; m2 < nm; m2++ {
				a := Anchor{c, m2}
				if picked[a] {
					continue
				}
				if _, done := evaluated[a]; done {
					continue
				}
				if v := m.EnergyJoules(c, m2); best.Core < 0 || v < bestV {
					best, bestV = a, v
				}
			}
		}
		if best.Core < 0 {
			break // everything is already evaluated
		}
		picked[best] = true
		out = append(out, best)
	}
	return out
}

// chooseEvaluated fills the outcome with the least-energy evaluated point,
// visiting the grid core-outer/memory-inner with strict less-than — the
// exhaustive studies' exact tie-break, so a verified set containing the
// true optimum reproduces brute force byte for byte.
func chooseEvaluated(out *Outcome, nc, nm int, evaluated map[Anchor]Sample) {
	first := true
	var bestS Sample
	for c := 0; c < nc; c++ {
		for m2 := 0; m2 < nm; m2++ {
			s, ok := evaluated[Anchor{c, m2}]
			if !ok {
				continue
			}
			if first || s.Energy < bestS.Energy {
				first = false
				bestS = s
				out.Core, out.Mem = c, m2
			}
		}
	}
	out.Verified = true
	out.Time = bestS.Time
	out.Energy = bestS.Energy
}
