package main

import (
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: greengpu/internal/sim
cpu: AMD EPYC 7B13
BenchmarkEventThroughput-8   	14107584	        84.55 ns/op	       0 B/op	       0 allocs/op
BenchmarkTicker-8            	12459828	        95.75 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	greengpu/internal/sim	3.383s
pkg: greengpu/internal/dvfs
BenchmarkScalerStep-8        	 1575276	       758.0 ns/op	      12.50 steps/ms	       0 B/op	       0 allocs/op
PASS
ok  	greengpu/internal/dvfs	1.519s
`

func TestParseSample(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Errorf("header: goos=%q goarch=%q", rep.Goos, rep.Goarch)
	}
	if rep.CPU != "AMD EPYC 7B13" {
		t.Errorf("cpu = %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkEventThroughput" || b.Procs != 8 {
		t.Errorf("first bench name=%q procs=%d", b.Name, b.Procs)
	}
	if b.Pkg != "greengpu/internal/sim" {
		t.Errorf("first bench pkg = %q", b.Pkg)
	}
	if b.Iterations != 14107584 || b.NsPerOp != 84.55 {
		t.Errorf("first bench iters=%d ns=%v", b.Iterations, b.NsPerOp)
	}
	if b.AllocsInfo == nil || *b.AllocsInfo != 0 {
		t.Errorf("first bench allocs = %v, want explicit 0", b.AllocsInfo)
	}
	// The dvfs benchmark follows a later pkg: header and carries a custom
	// metric unit.
	d := rep.Benchmarks[2]
	if d.Pkg != "greengpu/internal/dvfs" {
		t.Errorf("dvfs bench pkg = %q", d.Pkg)
	}
	if d.Metrics["steps/ms"] != 12.5 {
		t.Errorf("custom metric = %v, want 12.5", d.Metrics["steps/ms"])
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	in := `random log output
Benchmark results coming up
BenchmarkOK-4 100 5.0 ns/op
FAIL
`
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("got %d benchmarks, want 1 (noise lines must be skipped)", len(rep.Benchmarks))
	}
	if rep.Benchmarks[0].Name != "BenchmarkOK" {
		t.Errorf("name = %q", rep.Benchmarks[0].Name)
	}
}

func TestParseBenchLineShapes(t *testing.T) {
	cases := []struct {
		line string
		ok   bool
	}{
		{"BenchmarkX-8 100 5.0 ns/op", true},
		{"BenchmarkX 100 5.0 ns/op", true},             // no procs suffix
		{"BenchmarkX-8 100 5.0 ns/op 16 B/op", true},   // partial memstats
		{"BenchmarkX-8 100", false},                    // no value/unit pairs
		{"BenchmarkX-8 100 5.0 ns/op trailing", false}, // odd field count
		{"BenchmarkX-8 notanumber 5.0 ns/op", false},
	}
	for _, c := range cases {
		if _, ok := parseBenchLine(c.line); ok != c.ok {
			t.Errorf("parseBenchLine(%q) ok=%v, want %v", c.line, ok, c.ok)
		}
	}
}

// gate runs compare over two reports built from benchmark text and returns
// the failure count and report output.
func gate(t *testing.T, baseText, curText string, tolerance float64) (int, string) {
	t.Helper()
	return gateMetrics(t, baseText, curText, tolerance, nil)
}

func gateMetrics(t *testing.T, baseText, curText string, tolerance float64, gated map[string]bool) (int, string) {
	t.Helper()
	base, err := parse(strings.NewReader(baseText))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := parse(strings.NewReader(curText))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	n := compare(base, cur, tolerance, gated, &out)
	return n, out.String()
}

func TestAggregateTakesMinPerBenchmark(t *testing.T) {
	in := `pkg: p
BenchmarkA-8 100 30.0 ns/op 0 B/op 0 allocs/op
BenchmarkB-8 100 9.0 ns/op
BenchmarkA-8 100 10.0 ns/op 0 B/op 0 allocs/op
BenchmarkA-8 100 20.0 ns/op 0 B/op 0 allocs/op
`
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	aggregate(rep)
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks after aggregation, want 2", len(rep.Benchmarks))
	}
	// First-appearance order, min ns/op.
	if rep.Benchmarks[0].Name != "BenchmarkA" || rep.Benchmarks[0].NsPerOp != 10.0 {
		t.Errorf("A = %q %.1f ns/op, want min 10.0", rep.Benchmarks[0].Name, rep.Benchmarks[0].NsPerOp)
	}
	if rep.Benchmarks[1].Name != "BenchmarkB" || rep.Benchmarks[1].NsPerOp != 9.0 {
		t.Errorf("B = %q %.1f ns/op", rep.Benchmarks[1].Name, rep.Benchmarks[1].NsPerOp)
	}
}

func TestCompareWithinToleranceOK(t *testing.T) {
	base := "pkg: p\nBenchmarkA-8 100 100.0 ns/op 0 B/op 0 allocs/op\n"
	cur := "pkg: p\nBenchmarkA-8 100 120.0 ns/op 0 B/op 0 allocs/op\n"
	n, out := gate(t, base, cur, 0.25)
	if n != 0 {
		t.Fatalf("%d failures within tolerance:\n%s", n, out)
	}
	if !strings.Contains(out, "ok") {
		t.Errorf("no ok line:\n%s", out)
	}
}

func TestCompareNsPerOpRegressionFails(t *testing.T) {
	base := "pkg: p\nBenchmarkA-8 100 100.0 ns/op\n"
	cur := "pkg: p\nBenchmarkA-8 100 130.0 ns/op\n"
	if n, out := gate(t, base, cur, 0.25); n != 1 {
		t.Fatalf("failures = %d, want 1 for +30%% at 25%% tolerance:\n%s", n, out)
	}
}

func TestCompareAllocIncreaseIsHardFail(t *testing.T) {
	base := "pkg: p\nBenchmarkA-8 100 100.0 ns/op 0 B/op 0 allocs/op\n"
	// Even a massive speedup cannot excuse a single new alloc/op.
	cur := "pkg: p\nBenchmarkA-8 100 50.0 ns/op 16 B/op 1 allocs/op\n"
	n, out := gate(t, base, cur, 0.25)
	if n != 1 {
		t.Fatalf("failures = %d, want 1 for the alloc increase:\n%s", n, out)
	}
	if !strings.Contains(out, "allocs/op") {
		t.Errorf("failure does not name allocs/op:\n%s", out)
	}
}

func TestCompareMissingAllocDataFails(t *testing.T) {
	base := "pkg: p\nBenchmarkA-8 100 100.0 ns/op 0 B/op 0 allocs/op\n"
	cur := "pkg: p\nBenchmarkA-8 100 100.0 ns/op\n" // ran without -benchmem
	if n, out := gate(t, base, cur, 0.25); n != 1 {
		t.Fatalf("failures = %d, want 1 for missing allocation data:\n%s", n, out)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := "pkg: p\nBenchmarkA-8 100 100.0 ns/op\nBenchmarkB-8 100 100.0 ns/op\n"
	cur := "pkg: p\nBenchmarkA-8 100 100.0 ns/op\n"
	if n, out := gate(t, base, cur, 0.25); n != 1 {
		t.Fatalf("failures = %d, want 1 for the vanished benchmark:\n%s", n, out)
	}
}

func TestCompareNewAndFasterAreNotes(t *testing.T) {
	base := "pkg: p\nBenchmarkA-8 100 100.0 ns/op\n"
	cur := "pkg: p\nBenchmarkA-8 100 10.0 ns/op\nBenchmarkNew-8 100 5.0 ns/op\n"
	n, out := gate(t, base, cur, 0.25)
	if n != 0 {
		t.Fatalf("failures = %d, want 0 (speedups and new benchmarks are notes):\n%s", n, out)
	}
	if !strings.Contains(out, "faster") || !strings.Contains(out, "not in baseline") {
		t.Errorf("notes missing:\n%s", out)
	}
}

func TestParseBenchLineKeepsSubBenchName(t *testing.T) {
	// Sub-benchmark names contain slashes and may contain dashes that are
	// not a procs suffix.
	res, ok := parseBenchLine("BenchmarkHeap/arity-4-8 100 5.0 ns/op")
	if !ok {
		t.Fatal("line rejected")
	}
	if res.Name != "BenchmarkHeap/arity-4" || res.Procs != 8 {
		t.Errorf("name=%q procs=%d", res.Name, res.Procs)
	}
}

func TestCompareCustomMetricDriftIsNote(t *testing.T) {
	base := "pkg: p\nBenchmarkA-8 100 100.0 ns/op 500000 points/s\n"
	cur := "pkg: p\nBenchmarkA-8 100 100.0 ns/op 200000 points/s\n"
	n, out := gate(t, base, cur, 0.25)
	if n != 0 {
		t.Fatalf("custom metric drift failed the gate (%d failures):\n%s", n, out)
	}
	if !strings.Contains(out, "points/s") || !strings.Contains(out, "note") {
		t.Errorf("no drift note for the custom metric:\n%s", out)
	}
	// Drift within tolerance stays silent.
	quiet := "pkg: p\nBenchmarkA-8 100 100.0 ns/op 490000 points/s\n"
	if _, out := gate(t, base, quiet, 0.25); strings.Contains(out, "points/s") {
		t.Errorf("in-tolerance metric noted:\n%s", out)
	}
}

func TestCompareDeclaredMetricRegressionFails(t *testing.T) {
	base := "pkg: p\nBenchmarkA-8 100 100.0 ns/op 500000 points/s\n"
	cur := "pkg: p\nBenchmarkA-8 100 100.0 ns/op 200000 points/s\n" // -60%
	gated := map[string]bool{"points/s": true}
	n, out := gateMetrics(t, base, cur, 0.25, gated)
	if n != 1 {
		t.Fatalf("failures = %d, want 1 for a -60%% declared metric:\n%s", n, out)
	}
	if !strings.Contains(out, "declared gate metric") {
		t.Errorf("failure does not name the declared gate:\n%s", out)
	}
	// Within tolerance stays fine; improvements beyond tolerance are notes.
	ok := "pkg: p\nBenchmarkA-8 100 100.0 ns/op 450000 points/s\n"
	if n, out := gateMetrics(t, base, ok, 0.25, gated); n != 0 {
		t.Fatalf("in-tolerance declared metric failed (%d):\n%s", n, out)
	}
	fast := "pkg: p\nBenchmarkA-8 100 100.0 ns/op 900000 points/s\n"
	n, out = gateMetrics(t, base, fast, 0.25, gated)
	if n != 0 || !strings.Contains(out, "refresh the baseline") {
		t.Errorf("declared-metric improvement should be a refresh note (%d):\n%s", n, out)
	}
}

func TestCompareDeclaredLowerBetterMetric(t *testing.T) {
	base := "pkg: p\nBenchmarkA-8 100 100.0 ns/op 9.0 fullevals\n"
	gated := map[string]bool{"fullevals": false}
	worse := "pkg: p\nBenchmarkA-8 100 100.0 ns/op 36.0 fullevals\n"
	if n, out := gateMetrics(t, base, worse, 0.25, gated); n != 1 {
		t.Fatalf("failures = %d, want 1 for a 4x cost metric:\n%s", n, out)
	}
	better := "pkg: p\nBenchmarkA-8 100 100.0 ns/op 5.0 fullevals\n"
	if n, out := gateMetrics(t, base, better, 0.25, gated); n != 0 {
		t.Fatalf("cost-metric improvement failed (%d):\n%s", n, out)
	}
}

func TestCompareDeclaredMetricMissingFromRunFails(t *testing.T) {
	base := "pkg: p\nBenchmarkA-8 100 100.0 ns/op 500000 points/s\n"
	cur := "pkg: p\nBenchmarkA-8 100 100.0 ns/op\n"
	gated := map[string]bool{"points/s": true}
	if n, out := gateMetrics(t, base, cur, 0.25, gated); n != 1 {
		t.Fatalf("failures = %d, want 1 for a vanished declared metric:\n%s", n, out)
	}
	// Undeclared metrics may still vanish silently.
	if n, out := gateMetrics(t, base, cur, 0.25, nil); n != 0 {
		t.Fatalf("undeclared vanished metric failed (%d):\n%s", n, out)
	}
}

// TestSuiteTable pins each suite's go test arguments, tolerance and
// declared metrics. They define what the committed baseline measured:
// changing one must come with a refresh of that suite's baseline.
func TestSuiteTable(t *testing.T) {
	type want struct {
		baseline string
		args     [][]string
		gated    map[string]bool
	}
	wants := map[string]want{
		"sim": {"BENCH_sim.json", [][]string{
			{"test", "-run=^$", "-bench=.", "-benchmem", "-count=5", "-benchtime=50000x", "./internal/sim", "./internal/dvfs"},
		}, nil},
		"sweep": {"BENCH_sweep.json", [][]string{
			{"test", "-run=^$", "-bench=BenchmarkSweep", "-benchmem", "-count=5", "-benchtime=2000x", "./internal/sweep"},
		}, map[string]bool{"points/s": true, "evalreduction": true, "fullevals": false}},
		"fleet": {"BENCH_fleet.json", [][]string{
			{"test", "-run=^$", "-bench=BenchmarkFleet(Dedup|Aggregate)", "-benchmem", "-count=5", "-benchtime=200x", "./internal/fleet"},
			{"test", "-run=^$", "-bench=BenchmarkFleetNaive", "-count=5", "-benchtime=20x", "./internal/fleet"},
		}, map[string]bool{"nodes/s": true, "dedupratio": true}},
		"daemon": {"BENCH_daemon.json", [][]string{
			{"test", "-run=^$", "-bench=BenchmarkDaemon", "-count=5", "-benchtime=2000x", "./internal/daemon"},
		}, map[string]bool{"req/s": true, "points/s": true}},
	}
	if tolerance != 0.25 {
		t.Errorf("tolerance = %v, want 0.25", tolerance)
	}
	if len(suites) != len(wants) {
		t.Errorf("%d suites, want %d", len(suites), len(wants))
	}
	for _, s := range suites {
		w, ok := wants[s.name]
		if !ok {
			t.Errorf("unexpected suite %q", s.name)
			continue
		}
		var args [][]string
		for _, r := range s.runs {
			args = append(args, r.args())
		}
		if s.baseline != w.baseline || !reflect.DeepEqual(args, w.args) || !reflect.DeepEqual(s.gated, w.gated) {
			t.Errorf("suite %s = %s %q %v, want %s %q %v",
				s.name, s.baseline, args, s.gated, w.baseline, w.args, w.gated)
		}
	}
}

// TestBaselinesSelectedBySuites checks every committed go test baseline
// against the suite that gates it: each entry must be selected by one of
// the suite's runs, or the gate fails it as missing on every host, and an
// entry recording allocs/op must come from a -benchmem run, or the gate
// fails it for lacking allocation data.
func TestBaselinesSelectedBySuites(t *testing.T) {
	// BENCH_experiments.json is the cmd/experiments -bench-cache record,
	// not a go test suite.
	owned := map[string]bool{"BENCH_experiments.json": true}
	for _, s := range suites {
		owned[s.baseline] = true
		base, err := loadReport(filepath.Join("..", "..", s.baseline))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range base.Benchmarks {
			var by *run
			for i, r := range s.runs {
				for _, p := range r.pkgs {
					if "greengpu/"+strings.TrimPrefix(p, "./") == b.Pkg && regexp.MustCompile(r.bench).MatchString(b.Name) {
						by = &s.runs[i]
					}
				}
			}
			switch {
			case by == nil:
				t.Errorf("%s: %s %s is selected by no run of suite %s", s.baseline, b.Pkg, b.Name, s.name)
			case b.AllocsInfo != nil && !by.benchmem:
				t.Errorf("%s: %s records allocs/op but its run has no -benchmem", s.baseline, b.Name)
			}
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !owned[filepath.Base(f)] {
			t.Errorf("%s belongs to no suite", filepath.Base(f))
		}
	}
}
