package sweep

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"greengpu/internal/bus"
	"greengpu/internal/core"
	"greengpu/internal/cpusim"
	"greengpu/internal/faultinject"
	"greengpu/internal/gpusim"
	"greengpu/internal/predict"
	"greengpu/internal/runcache"
	"greengpu/internal/testbed"
	"greengpu/internal/units"
	"greengpu/internal/workload"
)

// testEngine builds an engine on the paper's testbed and workloads.
func testEngine(t testing.TB) *Engine {
	t.Helper()
	gpu, cpu, b := testbed.GeForce8800GTX(), testbed.PhenomIIX2(), testbed.PCIe()
	profiles, err := workload.Rodinia(gpu, cpu)
	if err != nil {
		t.Fatal(err)
	}
	return mustNew(t, gpu, cpu, b, profiles)
}

// mustNew builds a sequential engine through New.
func mustNew(t testing.TB, gpu gpusim.Config, cpu cpusim.Config, b bus.Config, profiles []*workload.Profile) *Engine {
	t.Helper()
	e, err := New(gpu, cpu, b, profiles)
	if err != nil {
		t.Fatal(err)
	}
	e.Jobs = 1
	return e
}

// config specializes the spec's base configuration for one point, as
// Engine.Run does.
func (e *Engine) config(spec *Spec, pt Point) core.Config {
	return specialize(e.baseConfig(spec), spec, pt, new(core.Levels))
}

// planPoints returns spec's points as e.Plan expands them.
func planPoints(t testing.TB, e *Engine, spec Spec) []Point {
	t.Helper()
	p, err := e.Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p.Points
}

// naiveRun evaluates the expanded points one at a time on fresh machines —
// the exact per-point path the batch evaluator must reproduce.
func naiveRun(t testing.TB, e *Engine, spec Spec) []*core.Result {
	t.Helper()
	pts := planPoints(t, e, spec)
	out := make([]*core.Result, len(pts))
	for i, pt := range pts {
		prof, err := workload.ByName(e.Profiles, pt.Workload)
		if err != nil {
			t.Fatal(err)
		}
		cfg := e.config(&spec, pt)
		r, err := core.Run(testbed.NewFrom(e.GPU, e.CPU, e.Bus), prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

// evalFull evaluates every expanded point of spec through Engine.Eval, the
// path that builds full results, and returns the results with their Fast
// flags.
func evalFull(t testing.TB, e *Engine, spec Spec) ([]*core.Result, []bool) {
	t.Helper()
	pts := planPoints(t, e, spec)
	out := make([]*core.Result, len(pts))
	fast := make([]bool, len(pts))
	for i, pt := range pts {
		var err error
		if out[i], fast[i], err = e.Eval(pt.Workload, e.config(&spec, pt)); err != nil {
			t.Fatal(err)
		}
	}
	return out, fast
}

// sameTotals reports whether a Run point carries r's totals, bit for bit.
func sameTotals(pr PointResult, r *core.Result) bool {
	bits := func(e units.Energy) uint64 { return math.Float64bits(float64(e)) }
	return pr.TotalTime == r.TotalTime &&
		bits(pr.Energy) == bits(r.Energy) &&
		bits(pr.EnergyGPU) == bits(r.EnergyGPU) &&
		bits(pr.EnergyCPU) == bits(r.EnergyCPU)
}

// checkAgainstNaive holds the engine to per-point core.Run on every point
// of spec: each Engine.Eval result must be byte-identical (DeepEqual over
// every field, float fields included — no tolerance) to core.Run on a fresh
// machine, and Run must return core.Run's totals bit for bit, with the
// same Fast flag as Engine.Eval, without a run cache (the totals-only
// closed form), on a cold cache (full results into the cache) and on the
// same cache warm. It returns how many of its points took the closed form,
// and how many there are.
func checkAgainstNaive(t *testing.T, spec Spec) (fast, points int) {
	t.Helper()
	e := testEngine(t)
	want := naiveRun(t, e, spec)
	full, fastFull := evalFull(t, e, spec)
	for i := range want {
		if fastFull[i] {
			fast++
		}
		if !reflect.DeepEqual(full[i], want[i]) {
			t.Errorf("%+v point %d: batch result diverges from per-point run\n got: %+v\nwant: %+v",
				spec, i, full[i], want[i])
		}
	}
	for _, pass := range []string{"uncached", "cold", "warm"} {
		if pass == "cold" {
			cache, err := runcache.New(runcache.Options{})
			if err != nil {
				t.Fatal(err)
			}
			e.Cache = cache
		}
		got, err := e.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("got %d results, want %d", len(got), len(want))
		}
		for i := range got {
			if !sameTotals(got[i], want[i]) || got[i].Fast != fastFull[i] {
				t.Errorf("%+v %s point %d (%+v): Run totals diverge from per-point run\n got: %+v\nwant: %+v",
					spec, pass, i, got[i].Point, got[i], want[i])
			}
		}
	}
	return fast, len(want)
}

// TestFastPathMatchesNaive is the batch engine's golden contract: over the
// paper's full 6×6 ladder, every workload's closed-form result must be
// byte-identical to running the same configuration through core.Run on a
// fresh machine.
func TestFastPathMatchesNaive(t *testing.T) {
	spec := Spec{Iterations: 4, CPULevel: -1}
	if fast, n := checkAgainstNaive(t, spec); fast != n {
		t.Errorf("only %d/%d ladder points took the fast path", fast, n)
	}
}

// TestFastPathIterationDefaults pins the profile-default and single
// iteration paths (Iterations == 0 uses the profile's count; the loop runs
// at least once).
func TestFastPathIterationDefaults(t *testing.T) {
	for _, iters := range []int{0, 1, 7} {
		checkAgainstNaive(t, Spec{Workloads: []string{"kmeans"}, Iterations: iters, CPULevel: 0,
			CoreLevels: []int{0, 5}, MemLevels: []int{0, 5}})
	}
}

// TestSpinWaitOff covers the non-spinning CPU accrual path: a baseline
// configuration with SpinWait off still takes the closed form through
// Engine.Eval and matches core.Run.
func TestSpinWaitOff(t *testing.T) {
	e := testEngine(t)
	spec := Spec{Workloads: []string{"nbody"}, Iterations: 2, CPULevel: -1,
		CoreLevels: []int{2}, MemLevels: []int{3}}
	pts := planPoints(t, e, spec)
	for _, pt := range pts {
		cfg := e.config(&spec, pt)
		cfg.SpinWait = false
		prof, _ := workload.ByName(e.Profiles, pt.Workload)
		want, err := core.Run(testbed.NewFrom(e.GPU, e.CPU, e.Bus), prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, fast, err := e.Eval(pt.Workload, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !fast {
			t.Error("SpinWait=false point left the closed form")
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("SpinWait=false result diverges:\n got %+v\nwant %+v", got, want)
		}
		if got.SpinTime != 0 || got.SpinEnergy != 0 {
			t.Errorf("SpinWait=false accrued spin: %v %v", got.SpinTime, got.SpinEnergy)
		}
	}
}

// TestRunAllocsIndependentOfPoints: an uncached Engine.Run allocates per
// batch, not per point — on the totals-only closed form a point allocates
// nothing — so a 6×6 ladder costs what a 2×2 one does.
func TestRunAllocsIndependentOfPoints(t *testing.T) {
	e := testEngine(t)
	allocs := func(ladder []int) float64 {
		spec := Spec{Workloads: []string{"kmeans"}, Iterations: 4, CPULevel: -1,
			CoreLevels: ladder, MemLevels: ladder}
		return testing.AllocsPerRun(20, func() {
			if _, err := e.Run(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, big := allocs([]int{0, 5}), allocs([]int{0, 1, 2, 3, 4, 5}); big != small {
		t.Errorf("Engine.Run allocates %v objects for 4 points and %v for 36; want no per-point allocation", small, big)
	}
}

// TestPlanRunAllocsIndependentOfWorkloads: a plan's Run evaluates through
// the closed forms New built and builds no tables of its own, so it
// allocates as much for all nine workloads as for one.
func TestPlanRunAllocsIndependentOfWorkloads(t *testing.T) {
	e := testEngine(t)
	allocs := func(workloads []string) float64 {
		p, err := e.Plan(Spec{Workloads: workloads, Iterations: 4, CPULevel: -1, CoreLevels: []int{0}, MemLevels: []int{0}})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := p.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, all := allocs([]string{"kmeans"}), allocs(nil); one != all {
		t.Errorf("a plan's Run allocates %v objects for one workload and %v for all; want no per-workload allocation", one, all)
	}
}

// TestUnbuiltEngineErrors: an engine New did not build, and one whose
// Profiles grew after New, hold no closed form of the workloads in
// question, and Plan, Eval, Key and PredictSweetSpots say so with an error
// instead of dereferencing a missing form.
func TestUnbuiltEngineErrors(t *testing.T) {
	built := testEngine(t)
	literal := &Engine{GPU: built.GPU, CPU: built.CPU, Bus: built.Bus, Profiles: built.Profiles, Jobs: 1}
	grown := testEngine(t)
	extra := *grown.Profiles[0]
	extra.Name = "kmeans-copy"
	grown.Profiles = append(grown.Profiles, &extra)
	for _, tc := range []struct {
		name     string
		e        *Engine
		workload string
	}{
		{"literal", literal, "kmeans"},
		{"grown", grown, "kmeans-copy"},
	} {
		spec := Spec{Workloads: []string{tc.workload}, Iterations: 2, CPULevel: -1}
		cfg := core.DefaultConfig(core.Baseline)
		if _, err := tc.e.Plan(spec); err == nil {
			t.Errorf("%s: Plan accepted %q", tc.name, tc.workload)
		}
		if _, err := tc.e.Plan(Spec{Iterations: 2, CPULevel: -1}); err == nil {
			t.Errorf("%s: Plan accepted every workload", tc.name)
		}
		if _, _, err := tc.e.Eval(tc.workload, cfg); err == nil {
			t.Errorf("%s: Eval accepted %q", tc.name, tc.workload)
		}
		if _, _, err := tc.e.Key(tc.workload, cfg); err == nil {
			t.Errorf("%s: Key accepted %q", tc.name, tc.workload)
		}
		if _, err := tc.e.PredictSweetSpots(spec, predict.Options{}); err == nil {
			t.Errorf("%s: PredictSweetSpots accepted %q", tc.name, tc.workload)
		}
	}
	if _, _, err := built.Eval("kmeans", core.DefaultConfig(core.Baseline)); err != nil {
		t.Errorf("built engine: Eval: %v", err)
	}
}

// TestNewRejectsBadDevices: New validates the bus and both devices before
// it tabulates anything.
func TestNewRejectsBadDevices(t *testing.T) {
	e := testEngine(t)
	badBus := e.Bus
	badBus.Bandwidth = 0
	badGPU := e.GPU
	badGPU.CoreLevels = nil
	badCPU := e.CPU
	badCPU.PStates = nil
	for name, args := range map[string]func() (*Engine, error){
		"bus": func() (*Engine, error) { return New(e.GPU, e.CPU, badBus, e.Profiles) },
		"gpu": func() (*Engine, error) { return New(badGPU, e.CPU, e.Bus, e.Profiles) },
		"cpu": func() (*Engine, error) { return New(e.GPU, badCPU, e.Bus, e.Profiles) },
	} {
		if _, err := args(); err == nil {
			t.Errorf("New accepted a bad %s", name)
		}
	}
}

// TestJobsDeterminism pins the sharding contract: identical results at any
// worker count, with and without an ambient chaos plan.
func TestJobsDeterminism(t *testing.T) {
	for _, chaos := range []bool{false, true} {
		spec := Spec{Iterations: 4, CPULevel: -1}
		if chaos {
			// Chaos points fall back to full simulation; keep the matrix
			// to one workload's ladder.
			spec.Workloads = []string{"kmeans"}
		}
		var runs [][]PointResult
		for _, jobs := range []int{1, 8} {
			e := testEngine(t)
			e.Jobs = jobs
			if chaos {
				plan := faultinject.Default(2012)
				e.FaultPlan = &plan
			}
			got, err := e.Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, got)
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Errorf("chaos=%v: results differ between jobs=1 and jobs=8", chaos)
		}
		if chaos {
			for _, pr := range runs[0] {
				if pr.Fast {
					t.Errorf("chaos point %+v took the fast path", pr.Point)
				}
			}
		}
	}
}

// TestDraws covers Monte Carlo expansion: per-draw plans are
// seed-deterministic and never take the closed form.
func TestDraws(t *testing.T) {
	spec := Spec{Workloads: []string{"kmeans"}, Mode: core.Holistic, Iterations: 2, Draws: 3, Seed: 7}
	var runs [][]PointResult
	for _, jobs := range []int{1, 8} {
		e := testEngine(t)
		e.Jobs = jobs
		got, err := e.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Fatalf("got %d results, want 3", len(got))
		}
		runs = append(runs, got)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Error("draw results differ between jobs=1 and jobs=8")
	}
	full, _ := evalFull(t, testEngine(t), spec)
	var faults uint64
	for d, pr := range runs[0] {
		if pr.Draw != d {
			t.Errorf("result %d has draw index %d", d, pr.Draw)
		}
		if pr.Fast {
			t.Errorf("draw %d took the fast path", d)
		}
		if !sameTotals(pr, full[d]) {
			t.Errorf("draw %d: Run totals diverge from Engine.Eval of its configuration", d)
		}
		faults += full[d].Faults.Total()
	}
	if faults == 0 {
		t.Error("no faults injected across any draw")
	}
}

// TestCacheSharing verifies sweeps populate and consume the run cache
// under the same keys: a second identical batch is all hits.
func TestCacheSharing(t *testing.T) {
	e := testEngine(t)
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Cache = cache
	spec := Spec{Workloads: []string{"kmeans"}, Iterations: 4, CPULevel: -1}
	first, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	miss := cache.Stats().Misses
	if miss == 0 {
		t.Fatal("first batch recorded no misses")
	}
	second, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses != miss {
		t.Errorf("second batch missed: %d -> %d", miss, st.Misses)
	}
	if st.Hits == 0 {
		t.Error("second batch recorded no hits")
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("cached result %d diverges", i)
		}
	}
}

func TestExpandErrors(t *testing.T) {
	e := testEngine(t)
	for _, spec := range []Spec{
		{Workloads: []string{"nope"}},
		{CoreLevels: []int{99}},
		{MemLevels: []int{99}},
		{CPULevel: 99},
		{Iterations: -1},
		{Draws: -1},
		{Mode: core.Mode(42)},
	} {
		if _, err := e.Run(context.Background(), spec); err == nil {
			t.Errorf("spec %+v: expected error", spec)
		}
	}
}

// TestRecordCap pins MaxRecords at its boundary: Validate rejects what it
// can see statically, Plan rejects what only the resolved ladders and
// profile iteration counts reveal, and both accept a spec exactly at the
// cap.
func TestRecordCap(t *testing.T) {
	e := testEngine(t)
	kmeans, err := workload.ByName(e.Profiles, "kmeans")
	if err != nil {
		t.Fatal(err)
	}
	one := []string{"kmeans"}
	for _, tc := range []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"iters at cap", Spec{Workloads: one, CPULevel: -1, CoreLevels: []int{0}, MemLevels: []int{0}, Iterations: MaxRecords}, true},
		{"iters over cap", Spec{Workloads: one, CPULevel: -1, CoreLevels: []int{0}, MemLevels: []int{0}, Iterations: MaxRecords + 1}, false},
		{"draws at cap", Spec{Workloads: one, Iterations: 4, Draws: MaxRecords / 4}, true},
		{"draws over cap", Spec{Workloads: one, Iterations: 4, Draws: MaxRecords/4 + 1}, false},
		{"profile iterations at cap", Spec{Workloads: one, Draws: MaxRecords / kmeans.Iterations}, true},
		{"profile iterations over cap", Spec{Workloads: one, Draws: MaxRecords/kmeans.Iterations + 1}, false},
		{"full ladder over cap", Spec{CPULevel: -1, Iterations: MaxRecords / 36}, false},
		{"overflowing draws", Spec{Iterations: 1 << 40, Draws: 1 << 40}, false},
	} {
		_, err := e.Plan(tc.spec)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Plan error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("workloads=kmeans,nbody core=0-2 mem=all cpu=1 iters=6 mode=baseline")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Workloads:  []string{"kmeans", "nbody"},
		CoreLevels: []int{0, 1, 2},
		CPULevel:   1,
		Iterations: 6,
		Seed:       DefaultSeed,
	}
	if !reflect.DeepEqual(spec, want) {
		t.Errorf("got %+v, want %+v", spec, want)
	}

	spec, err = ParseSpec("draws=10 seed=99 mode=holistic")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Draws != 10 || spec.Seed != 99 || spec.Mode != core.Holistic || spec.CPULevel != -1 {
		t.Errorf("got %+v", spec)
	}

	if _, err := ParseSpec(""); err != nil {
		t.Errorf("empty spec: %v", err)
	}
	for _, bad := range []string{
		"core", "core=", "core=x", "core=2-0", "core=-1", "core=0-99999999999",
		"cpu=x", "mode=warp", "bogus=1", "workloads=a,,b", "seed=-1", "iters=-2",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): expected error", bad)
		}
	}
	// The daemon returns these texts as 400 bodies; the shared tokenizer
	// keeps them byte-identical.
	for in, want := range map[string]string{
		"core":           `sweep: token "core" is not key=value`,
		"bogus=1":        `sweep: unknown key "bogus"`,
		"workloads=a,,b": `sweep: empty workload in "workloads=a,,b"`,
		"core=x":         `sweep: bad value in "core=x": strconv.Atoi: parsing "x": invalid syntax`,
	} {
		if _, err := ParseSpec(in); err == nil || err.Error() != want {
			t.Errorf("ParseSpec(%q) error %v, want %s", in, err, want)
		}
	}
}

// TestTableByteIdentity is the rendered golden: the batch's table must be
// byte-identical to one built from per-point core.Run results.
func TestTableByteIdentity(t *testing.T) {
	e := testEngine(t)
	spec := Spec{Iterations: 4, CPULevel: -1}
	got, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	pts := planPoints(t, e, spec)
	want := naiveRun(t, e, spec)
	naivePRs := make([]PointResult, len(want))
	for i := range want {
		naivePRs[i] = totals(pts[i], want[i], false)
	}
	var a, b bytes.Buffer
	if err := Table(e, got).WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := Table(e, naivePRs).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("batched sweep table differs from per-point table")
	}
}
