package experiments

import (
	"bytes"
	"os"
	"testing"
	"time"
)

func TestAblationDivisionStep(t *testing.T) {
	rows, err := env.AblationDivisionStep("kmeans", []float64{0.01, 0.05, 0.20})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's trade-off: a small step converges far more slowly than
	// the 5% default, and a too-large step costs energy.
	small, def, large := rows[0], rows[1], rows[2]
	if small.ConvergeIters >= 0 && def.ConvergeIters >= 0 && small.ConvergeIters <= def.ConvergeIters {
		t.Errorf("1%% step converged after %d, 5%% after %d: want slower for the small step",
			small.ConvergeIters, def.ConvergeIters)
	}
	if large.Energy <= def.Energy {
		t.Errorf("20%% step (%v) should cost more energy than 5%% (%v)", large.Energy, def.Energy)
	}
}

func TestAblationSafeguard(t *testing.T) {
	row, err := env.AblationSafeguard("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	if row.SafeguardHolds == 0 {
		t.Error("safeguard never engaged on kmeans")
	}
	if row.FlipsWithout <= row.FlipsWith {
		t.Errorf("safeguard off should oscillate more: with=%d without=%d", row.FlipsWith, row.FlipsWithout)
	}
	if row.EnergyWithout <= row.EnergyWith {
		t.Errorf("oscillation should cost energy: with=%v without=%v", row.EnergyWith, row.EnergyWithout)
	}
}

func TestAblationScalerParams(t *testing.T) {
	paper := []float64{0.15, 0.02}
	_ = paper
	rows, err := env.AblationScalerParams("kmeans", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatal("empty variant list should give no rows")
	}
}

func TestAblationSensorNoiseGracefulDegradation(t *testing.T) {
	rows, err := env.AblationSensorNoise("kmeans", []float64{0, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	clean, noisy := rows[0], rows[1]
	// Heavy noise may shrink savings but must not blow up execution time:
	// the performance-favouring loss keeps decisions near the peak.
	if noisy.ExecDelta > clean.ExecDelta+0.05 {
		t.Errorf("noise inflated exec delta: %.2f%% -> %.2f%%", clean.ExecDelta*100, noisy.ExecDelta*100)
	}
}

// TestAblationSensorNoiseGolden pins the sensor-noise ablation against the
// committed results/ablations_5.csv: the injector's GPU-noise channel must
// keep its seed derivation and draw order exactly, byte-for-byte.
func TestAblationSensorNoiseGolden(t *testing.T) {
	want, err := os.ReadFile("../../results/ablations_5.csv")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := env.AblationSensorNoise("kmeans", []float64{0, 0.05, 0.10, 0.20, 0.40})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := NoiseTable("kmeans", rows).WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("sensor-noise ablation diverged from committed results/ablations_5.csv\ngot:\n%swant:\n%s",
			got.String(), want)
	}
}

func TestAblationDecouplingStable(t *testing.T) {
	rows, err := env.AblationDecoupling("hotspot", []time.Duration{3 * time.Second, 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.RatioFlips > 2 {
			t.Errorf("interval %v: division destabilized (%d tail flips)", r.DVFSInterval, r.RatioFlips)
		}
	}
}

func TestAblationTablesRender(t *testing.T) {
	tables, err := env.AblationTables("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 6 {
		t.Fatalf("got %d ablation tables, want 6", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Errorf("table %q empty", tab.Title)
		}
	}
}
