package experiments

import (
	"bytes"
	"math"
	"testing"
)

// TestPredictValidation pins the study's structural contract and that
// every freshly computed row meets the prediction accuracy thresholds: 6×6
// spots exact, dense spots within one step or 5% measured energy regret,
// median relative energy error within 5% everywhere. `make golden` pins
// the committed CSV of the same rows.
func TestPredictValidation(t *testing.T) {
	rows, err := env.PredictValidation()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(env.Profiles); len(rows) != want {
		t.Fatalf("got %d rows, want %d (two ladders x every workload)", len(rows), want)
	}
	for _, r := range rows {
		switch r.Ladder {
		case "6x6":
			if r.Points != 36 {
				t.Errorf("%s %s: points = %d, want 36", r.Ladder, r.Workload, r.Points)
			}
			// The study's verification budget makes the testbed ladder
			// exact — the same contract the sweep tests pin byte-for-byte.
			if r.SpotDist != 0 || r.EnergyRegret != 0 {
				t.Errorf("%s %s: spot_dist = %d, regret = %v, want exact hit",
					r.Ladder, r.Workload, r.SpotDist, r.EnergyRegret)
			}
		case "24x24":
			if r.Points != 576 {
				t.Errorf("%s %s: points = %d, want 576", r.Ladder, r.Workload, r.Points)
			}
			if r.SpotDist > 1 && r.EnergyRegret > 0.05 {
				t.Errorf("%s %s: spot_dist = %d with regret %v — outside the gate",
					r.Ladder, r.Workload, r.SpotDist, r.EnergyRegret)
			}
		default:
			t.Fatalf("unknown ladder %q", r.Ladder)
		}
		if r.FullEvals >= r.Points {
			t.Errorf("%s %s: %d full evals on %d points — no reduction",
				r.Ladder, r.Workload, r.FullEvals, r.Points)
		}
		if r.MedRelEnergy > 0.05 {
			t.Errorf("%s %s: med_rel_energy = %v > 0.05", r.Ladder, r.Workload, r.MedRelEnergy)
		}
		if r.EnergyRegret < 0 {
			t.Errorf("%s %s: negative regret %v (spot better than brute force?)",
				r.Ladder, r.Workload, r.EnergyRegret)
		}
		if math.IsNaN(r.SpearmanEnergy) || r.SpearmanEnergy < 0.5 {
			t.Errorf("%s %s: spearman_energy = %v, want a strong positive rank correlation",
				r.Ladder, r.Workload, r.SpearmanEnergy)
		}
	}
}

func TestPredictValidationDeterminism(t *testing.T) {
	render := func(jobs int) string {
		e2 := *env
		e2.Jobs = jobs
		rows, err := e2.PredictValidation()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := PredictValidationTable(rows).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Error("prediction validation output differs between Jobs=1 and Jobs=8")
	}
}
