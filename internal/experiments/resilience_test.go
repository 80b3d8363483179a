package experiments

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"greengpu/internal/core"
	"greengpu/internal/faultinject"
)

func TestFaultResilienceShape(t *testing.T) {
	rows, err := env.FaultResilience("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	want := len(resilienceClasses)*len(resilienceIntensities) + 2 // + "none" + "all"
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	if rows[0].Class != "none" || rows[0].Faults.Total() != 0 {
		t.Fatalf("first row must be the fault-free reference, got %+v", rows[0])
	}
	if last := rows[len(rows)-1]; last.Class != "all" || last.Faults.Total() == 0 {
		t.Fatalf("last row must be the all-classes default plan with faults, got %+v", last)
	}
	// Every class must inject somewhere in its sweep. (A single low-
	// intensity arm may legitimately inject nothing — a 5% transition
	// fault needs the scaler to attempt transitions — but a whole class
	// coming back empty means its channel is disconnected.)
	byClass := map[string]uint64{}
	for _, r := range rows {
		if math.IsNaN(r.EnergyDelta) || math.IsInf(r.EnergyDelta, 0) ||
			math.IsNaN(r.ExecDelta) || math.IsInf(r.ExecDelta, 0) {
			t.Errorf("%s/%s: non-finite deltas %+v", r.Workload, r.Class, r)
		}
		byClass[r.Class] += r.Faults.Total()
	}
	for _, c := range resilienceClasses {
		if byClass[c.name] == 0 {
			t.Errorf("class %s injected nothing across its whole sweep", c.name)
		}
	}
}

// TestFaultResilienceRecoveryEvidence: the sweep must actually exercise the
// recovery machinery — transition rejection causes retries or watchdog
// trips, and sensor drops engage hold-last-good.
func TestFaultResilienceRecoveryEvidence(t *testing.T) {
	rows, err := env.FaultResilience("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	var drops, rejects uint64
	for _, r := range rows {
		switch r.Class {
		case "sensor-drop":
			drops += r.Recoveries.HeldSamples
		case "transition-reject":
			rejects += r.Recoveries.Retries + r.Recoveries.WatchdogTrips
		}
	}
	if drops == 0 {
		t.Error("sensor-drop sweep never engaged hold-last-good")
	}
	if rejects == 0 {
		t.Error("transition-reject sweep never retried or tripped the watchdog")
	}
}

// TestFaultResilienceDeterministicAcrossJobs: the study must be
// byte-identical at any worker count — the property `make chaos` enforces
// end-to-end on the emitted CSV.
func TestFaultResilienceDeterministicAcrossJobs(t *testing.T) {
	render := func(jobs int) []byte {
		e := *env
		e.Jobs = jobs
		rows, err := e.FaultResilience("kmeans", "hotspot")
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := FaultResilienceTable(rows).WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if seq, par := render(1), render(8); !bytes.Equal(seq, par) {
		t.Fatal("fault_resilience CSV differs between Jobs=1 and Jobs=8")
	}
}

// TestChaosPlanAppliesAmbiently: an Env.FaultPlan must reach runs whose
// configs carry no plan, lose to per-point plans, and carry into derived
// environments.
func TestChaosPlanAppliesAmbiently(t *testing.T) {
	ambient := faultinject.Default(1)
	e := *env
	e.FaultPlan = &ambient

	faulty, err := e.run("kmeans", core.DefaultConfig(core.Holistic))
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Faults.Total() == 0 {
		t.Error("ambient plan did not reach a plain run")
	}
	clean, err := env.run("kmeans", core.DefaultConfig(core.Holistic))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(clean, faulty) {
		t.Error("ambient plan left the run unchanged")
	}

	// A per-point plan wins over the ambient one: the same explicit-plan
	// run must be identical with and without chaos mode.
	explicit := faultinject.Plan{Seed: 9, StragglerRate: 1, StragglerFactor: 2}
	withChaos := core.DefaultConfig(core.Baseline)
	withChaos.FaultPlan = &explicit
	a, err := e.run("kmeans", withChaos)
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.run("kmeans", withChaos)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("ambient plan overrode a per-point plan")
	}

	d, err := e.derive(e.GPU, e.CPU, e.Bus)
	if err != nil {
		t.Fatal(err)
	}
	if d.FaultPlan != e.FaultPlan {
		t.Error("derive dropped the ambient fault plan")
	}
}
