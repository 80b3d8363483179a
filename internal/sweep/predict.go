// Analytic sweet-spot prediction over sweep ladders: instead of evaluating
// the full core×memory cross product, fit the cross-frequency model of
// internal/predict from a handful of anchor points and verify only its
// best-ranked candidates. Anchor and verification evaluations flow through
// the ordinary point evaluator (closed form where expressible, run-cache
// memoized), and the whole search outcome is itself memoized under a
// "predict:" cache variant so warm runs replay the cold search's exact
// decision — including its deterministic full-evaluation count.

package sweep

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"greengpu/internal/predict"
	"greengpu/internal/runcache"
	"greengpu/internal/telemetry"
	"greengpu/internal/trace"
	"greengpu/internal/units"
)

// SpotResult pairs one workload with its sweet-spot search outcome. Core
// and Mem in the outcome are device-ladder indices (into Engine.GPU's
// CoreLevels/MemLevels), even when the spec swept a sub-ladder.
type SpotResult struct {
	Workload string
	Outcome  predict.Outcome
}

// PredictSweetSpots finds each selected workload's sweet spot with
// O(anchors) full evaluations instead of the spec's full ladder cross
// product. The spec selects workloads, mode, iterations and the ladder
// subset exactly as Run does; Monte Carlo draw specs have no ladder to
// search and are rejected.
//
// When the search's verified set contains the true optimum (the normal
// case — a degenerate fit falls back to exhaustive evaluation), the
// outcome is byte-identical to brute force: point evaluations share Run's
// closed-form arithmetic and cache keys, and ties break in the exhaustive
// studies' grid order.
//
// Each workload's search emits one flight-recorder record (Mode
// "predict") when a recorder is installed, with Predicted set on
// unverified (model-only) outcomes.
func (e *Engine) PredictSweetSpots(spec Spec, opts predict.Options) ([]SpotResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Draws > 0 {
		return nil, fmt.Errorf("sweep: predict needs a ladder spec, not Monte Carlo draws")
	}
	profs, err := e.profiles(spec.Workloads)
	if err != nil {
		return nil, err
	}
	cores, mems, cpuLvl, err := e.ladder(&spec)
	if err != nil {
		return nil, err
	}
	base := e.baseConfig(&spec)
	if err := base.Validate(); err != nil {
		return nil, err
	}

	coreF := make([]units.Frequency, len(cores))
	for i, c := range cores {
		coreF[i] = e.GPU.CoreLevels[c]
	}
	memF := make([]units.Frequency, len(mems))
	for i, m := range mems {
		memF[i] = e.GPU.MemLevels[m]
	}
	variant := predictVariant(opts, cores, mems, cpuLvl)

	out := make([]SpotResult, 0, len(profs))
	for _, prof := range profs {
		n := prof.Name
		cf := e.form(n)
		_, fast := cf.Admits(&base)
		// The run cache stores the whole outcome: anchors must stay in the
		// verified set (a corner anchor may be the optimum), so memoizing
		// only the fitted coefficients would change warm-run outcomes;
		// memoizing the search itself keeps warm and cold runs
		// byte-identical.
		v, err := e.Memo(prof, &base, variant, func() (runcache.Value, error) {
			evals := 0
			oc, err := predict.SweetSpot(coreF, memF, func(ci, mi int) (predict.Sample, error) {
				evals++
				pt := Point{Workload: n, Draw: -1, Core: cores[ci], Mem: mems[mi], CPU: cpuLvl}
				pr, err := e.evalPoint(cf, &spec, &base, pt)
				if err != nil {
					return predict.Sample{}, err
				}
				return predict.Sample{Core: ci, Mem: mi, Time: pr.TotalTime, Energy: pr.Energy}, nil
			}, opts)
			// Every evaluated ladder point takes the workload's path
			// (see Plan.Run); the search counts them once.
			count(evals, fast)
			if err != nil {
				return runcache.Value{}, err
			}
			// Map the resolved-ladder indices back onto the device ladder
			// before the outcome is returned (or memoized).
			oc.Core, oc.Mem = cores[oc.Core], mems[oc.Mem]
			return runcache.Value{Predict: &oc}, nil
		})
		if err != nil {
			return nil, err
		}
		oc := *v.Predict
		e.stampPredict(n, oc, cpuLvl)
		out = append(out, SpotResult{Workload: n, Outcome: oc})
	}
	return out, nil
}

// predictVariant names the search flavour for the run cache: everything
// that shapes the outcome beyond the fingerprinted device/workload/config —
// the verification budget and the swept sub-ladder.
func predictVariant(opts predict.Options, cores, mems []int, cpuLvl int) string {
	var b strings.Builder
	// One allocation: the fixed fields plus up to three digits and a
	// separator per level index.
	b.Grow(64 + 4*(len(cores)+len(mems)))
	// "corners:energy" and "refine=0" are the anchor placement, objective
	// and refinement budget the search once took as options. They stay
	// spelled out so run-cache keys written before those options were
	// removed still match.
	fmt.Fprintf(&b, "predict:corners:energy:topm=%d:refine=0:cpu=%d:cores=", opts.TopM, cpuLvl)
	for i, c := range cores {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	b.WriteString(":mems=")
	for i, m := range mems {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(m))
	}
	return b.String()
}

// SpotsTable renders a PredictSweetSpots batch as one table, one row per
// workload: the chosen pair, how it was decided (verified / model-only /
// exhaustive fallback), and the evaluation economics.
func SpotsTable(e *Engine, spots []SpotResult) *trace.Table {
	t := trace.NewTable("Predicted sweet spots",
		"workload", "core_mhz", "mem_mhz",
		"exec_s", "energy_j", "verified", "fallback",
		"full_evals", "points", "eval_reduction")
	for _, s := range spots {
		oc := s.Outcome
		t.AddRow(s.Workload,
			fmt.Sprintf("%.0f", e.GPU.CoreLevels[oc.Core].MHz()),
			fmt.Sprintf("%.0f", e.GPU.MemLevels[oc.Mem].MHz()),
			fmt.Sprintf("%.6f", oc.Time.Seconds()),
			fmt.Sprintf("%.6f", oc.Energy.Joules()),
			strconv.FormatBool(oc.Verified), strconv.FormatBool(oc.Fallback),
			strconv.Itoa(oc.FullEvals), strconv.Itoa(oc.Points),
			fmt.Sprintf("%.2f", float64(oc.Points)/float64(oc.FullEvals)))
	}
	return t
}

// stampPredict emits one flight-recorder record for a finished search:
// the chosen levels, the predicted (or measured) runtime as the epoch
// time, the implied average power, and the Predicted flag for outcomes
// the model chose without simulation verification.
func (e *Engine) stampPredict(name string, oc predict.Outcome, cpuLvl int) {
	fr := telemetry.Recorder()
	if fr == nil {
		return
	}
	power := math.NaN()
	if oc.Time > 0 {
		power = oc.Energy.Joules() / oc.Time.Seconds()
	}
	fr.Record(telemetry.EpochRecord{
		Workload:  name,
		Mode:      "predict",
		At:        oc.Time,
		CoreLevel: oc.Core,
		MemLevel:  oc.Mem,
		CoreMHz:   e.GPU.CoreLevels[oc.Core].MHz(),
		MemMHz:    e.GPU.MemLevels[oc.Mem].MHz(),
		CPULevel:  cpuLvl,
		PowerW:    power,
		Predicted: !oc.Verified,
	})
}
