package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestSweetSpot pins the study's shape and markers: the full grid, exactly
// one best-energy and one best-EDP point per workload, and at least one
// scaler-pair annotation per workload (the preferred pair always lies on
// the full ladder).
func TestSweetSpot(t *testing.T) {
	e := env
	rows, err := e.SweetSpot()
	if err != nil {
		t.Fatal(err)
	}
	grid := len(e.GPU.CoreLevels) * len(e.GPU.MemLevels)
	if want := len(e.Profiles) * grid; len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	perWorkload := map[string]*struct{ energy, edp, scaler int }{}
	for _, r := range rows {
		c := perWorkload[r.Workload]
		if c == nil {
			c = &struct{ energy, edp, scaler int }{}
			perWorkload[r.Workload] = c
		}
		if r.BestEnergy {
			c.energy++
		}
		if r.BestEDP {
			c.edp++
		}
		if r.ScalerPair {
			c.scaler++
		}
	}
	if len(perWorkload) != len(e.Profiles) {
		t.Errorf("rows cover %d workloads, want %d", len(perWorkload), len(e.Profiles))
	}
	for name, c := range perWorkload {
		if c.energy != 1 || c.edp != 1 || c.scaler != 1 {
			t.Errorf("%s: markers = %+v, want exactly one of each", name, *c)
		}
	}
}

// TestSweetSpotDeterminism requires identical rendered output at any Jobs
// value — the study inherits the sweep engine's sharding contract.
func TestSweetSpotDeterminism(t *testing.T) {
	render := func(jobs int) string {
		e2 := *env
		e2.Jobs = jobs
		rows, err := e2.SweetSpot()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SweetSpotTable(rows).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Error("sweet-spot output differs between Jobs=1 and Jobs=8")
	}
	if !strings.Contains(seq, "kmeans") {
		t.Error("sweet-spot table missing workload rows")
	}
}
