package fleet

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"greengpu/internal/core"
	"greengpu/internal/faultinject"
	"greengpu/internal/parallel"
	"greengpu/internal/runcache"
	"greengpu/internal/trace"
)

// testSpec exercises every axis: both classes, three workloads, all four
// modes, three fault levels, deadlines on.
func testSpec(nodes int) Spec {
	return Spec{
		Nodes:          nodes,
		Seed:           DefaultSeed,
		Workloads:      []string{"kmeans", "hotspot", "lud"},
		Modes:          []core.Mode{core.Baseline, core.FreqScaling, core.Division, core.Holistic},
		FaultLevels:    []int{0, 1, 2},
		Iterations:     2,
		DeadlineFactor: 1.1,
	}
}

// render flattens a fleet result to bytes for byte-identity comparisons.
func render(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tb := range []*trace.Table{GroupsTable(r), SummaryTable(r)} {
		if err := tb.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestRunMatchesNaive pins the dedup engine's aggregates byte-identical to
// the naive per-node loop — including full-simulation modes and injected
// faults — with and without a cache.
func TestRunMatchesNaive(t *testing.T) {
	spec := testSpec(150)
	naive, err := (&Engine{Jobs: 1}).RunNaive(spec)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{{Jobs: 8}, {Jobs: 8, Cache: cache}} {
		res, err := e.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Agg != naive {
			t.Errorf("cache=%v: dedup aggregates diverge from naive:\n dedup: %+v\n naive: %+v",
				e.Cache != nil, res.Agg, naive)
		}
	}
}

// TestRunMatchesNaiveUnderAmbientPlan repeats the byte-identity check in
// chaos mode: level-0 nodes inherit the ambient plan on both paths.
func TestRunMatchesNaiveUnderAmbientPlan(t *testing.T) {
	plan := faultinject.Default(2012)
	spec := testSpec(60)
	naive, err := (&Engine{Jobs: 1, FaultPlan: &plan}).RunNaive(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Engine{Jobs: 8, FaultPlan: &plan}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg != naive {
		t.Errorf("ambient plan: dedup aggregates diverge from naive:\n dedup: %+v\n naive: %+v", res.Agg, naive)
	}
}

// TestRunDeterminism pins the full rendered output byte-identical across
// worker counts and cache modes, cold and warm.
func TestRunDeterminism(t *testing.T) {
	spec := testSpec(500)
	base, err := (&Engine{Jobs: 1}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := render(t, base)

	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm := &Engine{Jobs: 8, Cache: cache}
	for _, tc := range []struct {
		name string
		e    *Engine
	}{
		{"jobs=8", &Engine{Jobs: 8}},
		{"jobs=8 cold cache", warm},
		{"jobs=8 warm cache", warm},
		{"jobs=3", &Engine{Jobs: 3}},
	} {
		res, err := tc.e.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := render(t, res); !bytes.Equal(got, want) {
			t.Errorf("%s: output diverges from jobs=1", tc.name)
		}
	}
	if s := cache.Stats(); s.Hits == 0 {
		t.Errorf("warm rerun hit the cache 0 times: %+v", s)
	}
}

// TestNodeAttribution checks the node→group mapping is stateless: each
// node's group matches an independent re-derivation of its draws.
func TestNodeAttribution(t *testing.T) {
	spec := testSpec(300)
	res, err := (&Engine{Jobs: 4}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodeGroup) != spec.Nodes {
		t.Fatalf("NodeGroup has %d entries, want %d", len(res.NodeGroup), spec.Nodes)
	}
	classes := spec.classes()
	modes, levels := spec.modes(), spec.levels()
	total := 0
	for i := range res.Groups {
		total += res.Groups[i].Count
	}
	if total != spec.Nodes {
		t.Errorf("group counts sum to %d, want %d", total, spec.Nodes)
	}
	for i := 0; i < spec.Nodes; i++ {
		s := parallel.TaskSeed(spec.Seed, i)
		g := res.Node(i)
		if want := classes[parallel.Pick(s, 0, len(classes))].Name; g.Class != want {
			t.Fatalf("node %d: class %q, want %q", i, g.Class, want)
		}
		if want := spec.Workloads[parallel.Pick(s, 1, len(spec.Workloads))]; g.Workload != want {
			t.Fatalf("node %d: workload %q, want %q", i, g.Workload, want)
		}
		if want := modes[parallel.Pick(s, 2, len(modes))]; g.Mode != want {
			t.Fatalf("node %d: mode %v, want %v", i, g.Mode, want)
		}
		if want := levels[parallel.Pick(s, 3, len(levels))]; g.FaultLevel != want {
			t.Fatalf("node %d: fault level %d, want %d", i, g.FaultLevel, want)
		}
	}
}

// TestAggregateAllocs pins the per-node aggregation loop at zero
// allocations.
func TestAggregateAllocs(t *testing.T) {
	spec := testSpec(2000)
	res, err := (&Engine{Jobs: 4}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	sc := newGroupScalars(res.Groups)
	allocs := testing.AllocsPerRun(20, func() {
		var agg Aggregates
		aggregate(res.NodeGroup, sc, &agg)
	})
	if allocs != 0 {
		t.Errorf("aggregation loop allocates %.1f times per run, want 0", allocs)
	}
}

// TestDeadlineAccounting checks the deadline model: fault-free baseline
// groups never miss (factor > 1), and disabling the factor zeroes both
// deadlines and misses.
func TestDeadlineAccounting(t *testing.T) {
	spec := testSpec(400)
	res, err := (&Engine{Jobs: 4}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Groups {
		g := &res.Groups[i]
		if g.Deadline <= 0 {
			t.Fatalf("group %d: deadline %v, want positive", i, g.Deadline)
		}
		if g.Mode == core.Baseline && g.FaultLevel == 0 && g.Miss {
			t.Errorf("fault-free baseline group %s/%s missed its own deadline", g.Class, g.Workload)
		}
	}

	spec.DeadlineFactor = 0
	res, err = (&Engine{Jobs: 4}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.DeadlineMisses != 0 {
		t.Errorf("deadline accounting off: %d misses, want 0", res.Agg.DeadlineMisses)
	}
	for i := range res.Groups {
		if res.Groups[i].Deadline != 0 {
			t.Errorf("deadline accounting off: group %d has deadline %v", i, res.Groups[i].Deadline)
		}
	}
}

// TestHugeDeadlineFactorNeverMisses checks that a deadline past the int64
// nanosecond range saturates instead of wrapping negative: with such a
// factor, or an infinite one, no node can miss, in Run or in RunNaive.
func TestHugeDeadlineFactorNeverMisses(t *testing.T) {
	for _, in := range []string{"nodes=20 workloads=kmeans deadline=1e9", "nodes=20 workloads=kmeans deadline=inf"} {
		spec, err := ParseSpec(in)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&Engine{Jobs: 2}).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Agg.DeadlineMisses != 0 {
			t.Errorf("%q: Run counts %d deadline misses, want 0", in, res.Agg.DeadlineMisses)
		}
		for i := range res.Groups {
			if g := &res.Groups[i]; g.Miss || g.Deadline <= 0 {
				t.Errorf("%q: group %d has deadline %v, miss %t", in, i, g.Deadline, g.Miss)
			}
		}
		naive, err := (&Engine{Jobs: 1}).RunNaive(spec)
		if err != nil {
			t.Fatal(err)
		}
		if naive.DeadlineMisses != 0 {
			t.Errorf("%q: RunNaive counts %d deadline misses, want 0", in, naive.DeadlineMisses)
		}
	}
}

// TestDedupCollapses checks the economics: a large fleet collapses to the
// axis cross product, and the dedup ratio reflects it.
func TestDedupCollapses(t *testing.T) {
	spec := testSpec(5000)
	res, err := (&Engine{Jobs: 4}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// 2 classes × 3 workloads × 4 modes × 3 levels = 72 node groups; the
	// deadline references (baseline, level 0) are all drawn by some node
	// at this fleet size, so no extra groups appear.
	if want := 72; len(res.Groups) != want {
		t.Errorf("got %d groups, want %d", len(res.Groups), want)
	}
	if r := res.DedupRatio(); r < 60 {
		t.Errorf("dedup ratio %.1f, want ≥ 60 at 5000 nodes", r)
	}
}

// TestPlanForLevel pins the intensity ladder: nil at 0, the exact default
// plan at 2, linear scaling elsewhere, and always valid.
func TestPlanForLevel(t *testing.T) {
	if p := PlanForLevel(7, 0); p != nil {
		t.Fatalf("level 0: got %+v, want nil", p)
	}
	p2 := PlanForLevel(7, 2)
	want := faultinject.Default(parallel.TaskSeed(7, faultSeedOffset+2))
	if !reflect.DeepEqual(*p2, want) {
		t.Errorf("level 2 is not the default plan:\n got: %+v\nwant: %+v", *p2, want)
	}
	p1 := PlanForLevel(7, 1)
	if got, want := p1.GPUDropRate, want.GPUDropRate/2; got != want {
		t.Errorf("level 1 GPUDropRate = %v, want %v", got, want)
	}
	for lv := 0; lv <= MaxFaultLevel; lv++ {
		p := PlanForLevel(7, lv)
		if p == nil {
			continue
		}
		if err := p.Validate(); err != nil {
			t.Errorf("level %d: invalid plan: %v", lv, err)
		}
		if p.TransitionRejectRate > 1 {
			t.Errorf("level %d: rate above 1 escaped the clamp", lv)
		}
	}
	if PlanForLevel(7, 1).Seed == PlanForLevel(7, 2).Seed {
		t.Error("levels 1 and 2 share a plan seed")
	}
}

// TestParseSpec covers the mini-language round trip and its error cases.
func TestParseSpec(t *testing.T) {
	got, err := ParseSpec("nodes=10000 seed=9 classes=8800gtx workloads=kmeans,lud modes=baseline,scaling faults=0,1,2 iters=3 deadline=1.5")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Nodes: 10000, Seed: 9, Classes: []string{"8800gtx"},
		Workloads:   []string{"kmeans", "lud"},
		Modes:       []core.Mode{core.Baseline, core.FreqScaling},
		FaultLevels: []int{0, 1, 2}, Iterations: 3, DeadlineFactor: 1.5,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseSpec:\n got: %+v\nwant: %+v", got, want)
	}

	// "all" alone selects every profile, in a spec and in a struct.
	if all, err := ParseSpec("workloads=all"); err != nil || all.Workloads != nil {
		t.Errorf(`ParseSpec("workloads=all") = %+v, %v`, all, err)
	}
	if err := (&Spec{Nodes: 1, Workloads: []string{"all"}}).Validate(); err != nil {
		t.Errorf(`Workloads ["all"]: %v`, err)
	}

	defaults, err := ParseSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if defaults.Nodes != 1000 || defaults.Seed != DefaultSeed ||
		defaults.Iterations != 4 || defaults.DeadlineFactor != 1.1 {
		t.Errorf("defaults: %+v", defaults)
	}

	for _, bad := range []string{
		"nodes", "nodes=", "nodes=0", "nodes=-5", "nodes=99999999",
		"bogus=1", "classes=riva128", "modes=warp", "faults=9",
		"faults=-1", "deadline=-1", "deadline=NaN", "iters=-2",
		"workloads=a,,b", "nodes=ten", "workloads=nope", "workloads=kmeans,nope",
		"workloads=all,kmeans",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", bad)
		}
	}
	// The daemon returns these texts as 400 bodies.
	for in, want := range map[string]string{
		"nodes":          `fleet: token "nodes" is not key=value`,
		"bogus=1":        `fleet: unknown key "bogus"`,
		"workloads=a,,b": `fleet: empty workload in "workloads=a,,b"`,
		"nodes=ten":      `fleet: bad value in "nodes=ten": strconv.Atoi: parsing "ten": invalid syntax`,
		"iters=1000000":  `fleet: spec asks for more than 262144 iteration records`,
		"workloads=nope": `fleet: unknown workload "nope" (have ` + strings.Join(rodiniaNames, ", ") + `)`,
	} {
		if _, err := ParseSpec(in); err == nil || err.Error() != want {
			t.Errorf("ParseSpec(%q) error %v, want %s", in, err, want)
		}
	}
}

// TestRunRejectsUnknownWorkload checks resolution errors surface.
func TestRunRejectsUnknownWorkload(t *testing.T) {
	spec := Spec{Nodes: 10, Workloads: []string{"no-such-kernel"}}
	if _, err := (&Engine{}).Run(context.Background(), spec); err == nil {
		t.Error("Run accepted an unknown workload")
	}
	if _, err := (&Engine{}).RunNaive(spec); err == nil {
		t.Error("RunNaive accepted an unknown workload")
	}
}
