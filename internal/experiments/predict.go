package experiments

import (
	"context"
	"fmt"
	"strconv"

	"greengpu/internal/dvfs"
	"greengpu/internal/predict"
	"greengpu/internal/sweep"
	"greengpu/internal/testbed"
	"greengpu/internal/trace"
)

// PredictValidationRow is one (ladder, workload) row of the prediction
// validation study: how well the analytic cross-frequency model and its
// sweet-spot search reproduce a brute-forced ladder.
type PredictValidationRow struct {
	// Ladder names the grid: "6x6" is the paper's testbed ladder, "24x24"
	// the synthetic dense re-quantization of the same card.
	Ladder   string
	Workload string
	// Points is the ladder size; FullEvals the search's evaluation count.
	Points    int
	FullEvals int
	// SpotCoreMHz/SpotMemMHz are the search's chosen pair; BruteCoreMHz/
	// BruteMemMHz the exhaustive minimum-energy pair; SpotDist their
	// Chebyshev ladder-step distance (0 = exact hit).
	SpotCoreMHz  float64
	SpotMemMHz   float64
	BruteCoreMHz float64
	BruteMemMHz  float64
	SpotDist     int
	// EnergyRegret is the measured energy cost of the search's choice:
	// (E(spot) − E(brute)) / E(brute). On finely-quantized ladders many
	// near-optimal points have almost identical energy, so regret — not
	// step distance — is the meaningful dense-ladder criterion.
	EnergyRegret float64
	// MedRelTime/MaxRelTime and MedRelEnergy/MaxRelEnergy aggregate the
	// model's per-point relative prediction error across the whole grid.
	MedRelTime   float64
	MaxRelTime   float64
	MedRelEnergy float64
	MaxRelEnergy float64
	// SpearmanEnergy is the rank correlation between predicted and
	// measured energy across the grid — 1 means the model orders the
	// ladder exactly like the simulator.
	SpearmanEnergy float64
}

// predictStudyTopM is the verification budget the validation study (and
// therefore the CI predict gate) pins. On the 6×6 testbed ladder the
// model's piecewise-linear memory crossover can rank the true optimum as
// deep as 12th among candidates (quasirandom generator, srad_v2,
// streamcluster), so twelve verifications make every 6×6 spot byte-exact —
// still under half the ladder. On the 24×24 grid the same budget is a 34×
// evaluation reduction; there the optimum can rank hundreds deep (the
// dense basin is nearly flat, srad_v2's true best ranks 259th) so the
// study reports energy regret instead of chasing exactness. The
// throughput benchmark (BenchmarkSweepPredicted) separately exercises the
// default budget, predict.DefaultTopM.
const predictStudyTopM = 12

// PredictValidation runs the prediction validation study: brute-force the
// paper's 6×6 ladder and the synthetic dense 24×24 ladder for every
// workload, fit the analytic model from its anchor points, and compare —
// per-point relative time/energy error, energy rank correlation, and the
// sweet-spot search's chosen pair against the exhaustive minimum.
// TestPredictValidation holds every row to the accuracy thresholds (spot
// within one ladder step or within 5% energy regret, median relative
// energy error within 5%), and `make golden` pins the committed CSV.
func (e *Env) PredictValidation() ([]PredictValidationRow, error) {
	opts := predict.Options{TopM: predictStudyTopM}
	rows, err := e.predictValidateLadder("6x6", opts)
	if err != nil {
		return nil, err
	}
	dense, err := e.derive(testbed.GeForce8800GTXDense(24, 24), e.CPUConfig, e.BusConfig)
	if err != nil {
		return nil, err
	}
	denseRows, err := dense.predictValidateLadder("24x24", opts)
	if err != nil {
		return nil, err
	}
	return append(rows, denseRows...), nil
}

// predictValidateLadder brute-forces the environment's full GPU ladder at
// the peak CPU P-state, runs the analytic search on the same grid, and
// scores model and search against the exhaustive results.
func (e *Env) predictValidateLadder(label string, opts predict.Options) ([]PredictValidationRow, error) {
	eng := e.SweepEngine()
	// Iterations 4 matches the sweet-spot study, so ladder points share
	// their run-cache keys with it.
	spec := sweep.Spec{Iterations: 4, CPULevel: -1}
	brute, err := eng.Run(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	spots, err := eng.PredictSweetSpots(spec, opts)
	if err != nil {
		return nil, err
	}
	coreF, memF := e.GPUConfig.CoreLevels, e.GPUConfig.MemLevels
	nc, nm := len(coreF), len(memF)
	per := nc * nm
	if len(brute) != per*len(spots) {
		return nil, fmt.Errorf("predict validation: %d brute points for %d workloads on a %dx%d ladder",
			len(brute), len(spots), nc, nm)
	}
	anchors := predict.Anchors(opts.Strategy, coreF, memF)

	rows := make([]PredictValidationRow, 0, len(spots))
	for wi, spot := range spots {
		// Expand order keeps each workload's grid contiguous,
		// core-outer/memory-inner.
		block := brute[wi*per : (wi+1)*per]
		if block[0].Workload != spot.Workload {
			return nil, fmt.Errorf("predict validation: brute block %q vs spot %q",
				block[0].Workload, spot.Workload)
		}
		samples := make([]predict.Sample, len(anchors))
		for i, a := range anchors {
			pr := block[a.Core*nm+a.Mem]
			samples[i] = predict.Sample{Core: a.Core, Mem: a.Mem,
				Time: pr.Result.TotalTime, Energy: pr.Result.Energy}
		}
		model, err := predict.Fit(coreF, memF, samples)
		if err != nil {
			return nil, fmt.Errorf("predict validation: %s on %s: %w", spot.Workload, label, err)
		}

		relT := make([]float64, 0, per)
		relE := make([]float64, 0, per)
		predE := make([]float64, 0, per)
		actE := make([]float64, 0, per)
		best := 0
		for i, pr := range block {
			pt := model.TimeSeconds(pr.Core, pr.Mem)
			pe := model.EnergyJoules(pr.Core, pr.Mem)
			relT = append(relT, predict.RelErr(pt, pr.Result.TotalTime.Seconds()))
			relE = append(relE, predict.RelErr(pe, pr.Result.Energy.Joules()))
			predE = append(predE, pe)
			actE = append(actE, pr.Result.Energy.Joules())
			if pr.Result.Energy < block[best].Result.Energy {
				best = i
			}
		}
		oc := spot.Outcome
		rows = append(rows, PredictValidationRow{
			Ladder:       label,
			Workload:     spot.Workload,
			Points:       oc.Points,
			FullEvals:    oc.FullEvals,
			SpotCoreMHz:  coreF[oc.Core].MHz(),
			SpotMemMHz:   memF[oc.Mem].MHz(),
			BruteCoreMHz: coreF[block[best].Core].MHz(),
			BruteMemMHz:  memF[block[best].Mem].MHz(),
			SpotDist: dvfs.PairDistance(
				dvfs.Decision{CoreLevel: oc.Core, MemLevel: oc.Mem},
				dvfs.Decision{CoreLevel: block[best].Core, MemLevel: block[best].Mem}),
			EnergyRegret: (oc.Energy.Joules() - block[best].Result.Energy.Joules()) /
				block[best].Result.Energy.Joules(),
			MedRelTime:     predict.Median(relT),
			MaxRelTime:     predict.Max(relT),
			MedRelEnergy:   predict.Median(relE),
			MaxRelEnergy:   predict.Max(relE),
			SpearmanEnergy: predict.Spearman(predE, actE),
		})
	}
	return rows, nil
}

// PredictValidationTable renders the study as one table, one row per
// (ladder, workload).
func PredictValidationTable(rows []PredictValidationRow) *trace.Table {
	t := trace.NewTable(
		"Prediction validation — analytic model vs brute-forced ladders",
		"ladder", "workload", "points", "full_evals",
		"spot_core_mhz", "spot_mem_mhz", "brute_core_mhz", "brute_mem_mhz",
		"spot_dist", "energy_regret", "med_rel_time", "max_rel_time",
		"med_rel_energy", "max_rel_energy", "spearman_energy")
	for _, r := range rows {
		t.AddRow(r.Ladder, r.Workload,
			strconv.Itoa(r.Points), strconv.Itoa(r.FullEvals),
			fmt.Sprintf("%.0f", r.SpotCoreMHz), fmt.Sprintf("%.0f", r.SpotMemMHz),
			fmt.Sprintf("%.0f", r.BruteCoreMHz), fmt.Sprintf("%.0f", r.BruteMemMHz),
			strconv.Itoa(r.SpotDist), fmt.Sprintf("%.6f", r.EnergyRegret),
			fmt.Sprintf("%.6f", r.MedRelTime), fmt.Sprintf("%.6f", r.MaxRelTime),
			fmt.Sprintf("%.6f", r.MedRelEnergy), fmt.Sprintf("%.6f", r.MaxRelEnergy),
			fmt.Sprintf("%.6f", r.SpearmanEnergy))
	}
	return t
}
