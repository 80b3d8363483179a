// Command benchjson runs the repository's benchmark suites and gates them
// against their committed baselines, the BENCH_*.json trajectory files
// (see docs/PERF.md "Trajectory snapshots").
//
// Usage:
//
//	benchjson gate            # every suite once, each gated against its baseline
//	benchjson refresh SUITE   # one suite once, rewriting its baseline
//
// A suite is one row of the suites table: its baseline file, the go test
// invocations that measure it, and the custom metrics it declares as
// contracts (compare documents the gate policy). The table is the only
// place a suite is written; `make bench-gates` and `make bench-refresh
// SUITE=<name>` are its callers. gate prints one verdict per suite, leaves
// each fresh report in freshDir, and exits non-zero if any suite failed.
// Refresh is per suite so that refreshing one suite on a slow host never
// loosens another.
//
// The parser understands the standard benchmark line format
//
//	BenchmarkName-8   1000000   123.4 ns/op   16 B/op   2 allocs/op
//
// plus the goos/goarch/cpu/pkg header lines. ns/op, B/op and allocs/op get
// dedicated fields; any other unit (custom b.ReportMetric output) lands in
// the Metrics map. Non-benchmark lines (PASS, ok, test log output) are
// ignored.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// tolerance is the allowed fractional drift of ns/op, and of each declared
// metric in its regressing direction, against the committed baseline.
const tolerance = 0.25

// freshDir receives each gated suite's fresh report, named like its
// baseline. It is gitignored; CI uploads it as the run's benchmark
// snapshot.
const freshDir = "bench-fresh"

// A run is one go test invocation of a suite.
type run struct {
	bench     string // -bench regexp
	benchmem  bool   // record B/op and allocs/op, and so gate allocs/op
	benchtime string // fixed iteration count, e.g. "2000x"
	pkgs      []string
}

// args returns the go test arguments of the run. Five counts per benchmark
// give aggregate's min-ns/op estimator a distribution to choose from.
func (r run) args() []string {
	a := []string{"test", "-run=^$", "-bench=" + r.bench}
	if r.benchmem {
		a = append(a, "-benchmem")
	}
	a = append(a, "-count=5", "-benchtime="+r.benchtime)
	return append(a, r.pkgs...)
}

// A suite is one committed baseline, the go test runs that measure it, and
// the custom metrics it declares as contracts (unit → higher is better).
type suite struct {
	name     string
	baseline string
	runs     []run
	gated    map[string]bool
}

var suites = []suite{
	{
		// The event engine and the DVFS controller: the hot paths of every
		// simulated run.
		name: "sim", baseline: "BENCH_sim.json",
		runs: []run{{bench: ".", benchmem: true, benchtime: "50000x",
			pkgs: []string{"./internal/sim", "./internal/dvfs"}}},
	},
	{
		// The batched ladder evaluation, its per-point naive baseline, the
		// predicted search and the holistic full-simulation path.
		// fullevals (the predicted search's full-evaluation budget) is
		// deterministic and must not grow.
		name: "sweep", baseline: "BENCH_sweep.json",
		runs: []run{{bench: "BenchmarkSweep", benchmem: true, benchtime: "2000x",
			pkgs: []string{"./internal/sweep"}}},
		gated: map[string]bool{"points/s": true, "evalreduction": true, "fullevals": false},
	},
	{
		// The dedup-compressed 10k-node evaluation, the zero-allocation
		// aggregation loop, and the naive per-node baseline. The naive run
		// has no -benchmem: at ~629k allocs/op its count flickers by ±1
		// from runtime background allocation, which would flake the
		// allocs/op gate; its ns/op and nodes/s stay gated.
		name: "fleet", baseline: "BENCH_fleet.json",
		runs: []run{
			{bench: "BenchmarkFleet(Dedup|Aggregate)", benchmem: true, benchtime: "200x",
				pkgs: []string{"./internal/fleet"}},
			{bench: "BenchmarkFleetNaive", benchtime: "20x",
				pkgs: []string{"./internal/fleet"}},
		},
		gated: map[string]bool{"nodes/s": true, "dedupratio": true},
	},
	{
		// greengpud serving real requests over loopback against a warm run
		// cache (see docs/SERVICE.md "Capacity planning"). No -benchmem:
		// HTTP handler allocation counts depend on the scheduler.
		name: "daemon", baseline: "BENCH_daemon.json",
		runs: []run{{bench: "BenchmarkDaemon", benchtime: "2000x",
			pkgs: []string{"./internal/daemon"}}},
		gated: map[string]bool{"req/s": true, "points/s": true},
	},
}

// Result is one benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Procs      int                `json:"procs,omitempty"` // the -N GOMAXPROCS suffix
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op,omitempty"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsInfo *float64           `json:"allocs_per_op,omitempty"` // pointer: 0 allocs/op is a result worth recording
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Report is the whole parsed run.
type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	var err error
	switch args := os.Args[1:]; {
	case len(args) == 1 && args[0] == "gate":
		err = gateAll(os.Stdout)
	case len(args) == 2 && args[0] == "refresh":
		err = refresh(args[1])
	default:
		err = errors.New("usage: benchjson gate | benchjson refresh SUITE")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// gateAll gates every suite, printing one verdict line per suite, and
// fails if any suite failed.
func gateAll(w io.Writer) error {
	if err := os.MkdirAll(freshDir, 0o755); err != nil {
		return err
	}
	var failed []string
	for _, s := range suites {
		if err := s.gate(w); err != nil {
			fmt.Fprintf(w, "suite %s: FAIL: %v\n", s.name, err)
			failed = append(failed, s.name)
			continue
		}
		fmt.Fprintf(w, "suite %s: ok\n", s.name)
	}
	if len(failed) > 0 {
		return fmt.Errorf("bench gates failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// gate measures the suite once, leaves the fresh report in freshDir, and
// compares it with the committed baseline.
func (s suite) gate(w io.Writer) error {
	fresh, err := s.measure()
	if err != nil {
		return err
	}
	if err := writeReport(filepath.Join(freshDir, s.baseline), fresh); err != nil {
		return err
	}
	base, err := loadReport(s.baseline)
	if err != nil {
		return err
	}
	aggregate(base)
	if n := compare(base, fresh, tolerance, s.gated, w); n > 0 {
		return fmt.Errorf("%d benchmark regression(s) vs %s", n, s.baseline)
	}
	return nil
}

// refresh measures the named suite once and rewrites its baseline.
func refresh(name string) error {
	var names []string
	for _, s := range suites {
		if s.name == name {
			rep, err := s.measure()
			if err != nil {
				return err
			}
			return writeReport(s.baseline, rep)
		}
		names = append(names, s.name)
	}
	return fmt.Errorf("unknown suite %q (want one of %s)", name, strings.Join(names, ", "))
}

// measure runs the suite's go test invocations once each and returns the
// aggregated report. On failure the captured output goes to stderr.
func (s suite) measure() (*Report, error) {
	var out bytes.Buffer
	for _, r := range s.runs {
		cmd := exec.Command("go", r.args()...)
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			os.Stderr.Write(out.Bytes())
			return nil, fmt.Errorf("go %s: %w", strings.Join(r.args(), " "), err)
		}
	}
	rep, err := parse(&out)
	if err != nil {
		return nil, err
	}
	aggregate(rep)
	return rep, nil
}

// writeReport writes rep as indented JSON, the committed baseline format.
func writeReport(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// aggregate collapses repeated runs of the same benchmark (go test -count=N)
// into one entry taking the minimum ns/op — the noise-robust estimator for
// shared machines, where interference only ever adds time. B/op, allocs/op
// and custom metrics are kept from the fastest run (allocation counts are
// deterministic, so every run agrees on them anyway). First-appearance
// order is preserved.
func aggregate(rep *Report) {
	type key struct {
		pkg, name string
		procs     int
	}
	idx := map[key]int{}
	out := rep.Benchmarks[:0]
	for _, b := range rep.Benchmarks {
		k := key{b.Pkg, b.Name, b.Procs}
		if i, ok := idx[k]; ok {
			if b.NsPerOp < out[i].NsPerOp {
				out[i] = b
			}
			continue
		}
		idx[k] = len(out)
		out = append(out, b)
	}
	rep.Benchmarks = out
}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compare gates a fresh run against the committed baseline and returns the
// number of failures. Policy: ns/op may drift up to the given fraction
// above the baseline (micro-benchmarks are noisy); any allocs/op increase
// fails outright (allocation counts are deterministic, so an increase is a
// real escape, never noise); a baseline benchmark missing from the run
// fails (a silently shrinking gate protects nothing). Speedups beyond the
// tolerance and new benchmarks are flagged as reminders to refresh the
// baseline, not failures. Custom metrics declared in gated (unit →
// higher-is-better) are contracts: a regression beyond the tolerance in
// the declared direction fails; everything else stays a note.
func compare(base, cur *Report, tolerance float64, gated map[string]bool, w io.Writer) int {
	type key struct{ pkg, name string }
	current := map[key]Result{}
	for _, b := range cur.Benchmarks {
		current[key{b.Pkg, b.Name}] = b
	}
	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Fprintf(w, "FAIL  "+format+"\n", args...)
	}
	for _, b := range base.Benchmarks {
		got, ok := current[key{b.Pkg, b.Name}]
		if !ok {
			fail("%s %s: in baseline but not in this run", b.Pkg, b.Name)
			continue
		}
		delete(current, key{b.Pkg, b.Name})
		switch ratio := got.NsPerOp / b.NsPerOp; {
		case b.NsPerOp == 0:
		case ratio > 1+tolerance:
			fail("%s %s: %.2f ns/op vs baseline %.2f (+%.0f%%, tolerance %.0f%%)",
				b.Pkg, b.Name, got.NsPerOp, b.NsPerOp, (ratio-1)*100, tolerance*100)
		case ratio < 1-tolerance:
			fmt.Fprintf(w, "note  %s %s: %.2f ns/op vs baseline %.2f (%.0f%% faster — refresh the baseline)\n",
				b.Pkg, b.Name, got.NsPerOp, b.NsPerOp, (1-ratio)*100)
		}
		if b.AllocsInfo != nil {
			switch {
			case got.AllocsInfo == nil:
				fail("%s %s: baseline records %.0f allocs/op but this run has no allocation data (run with -benchmem)",
					b.Pkg, b.Name, *b.AllocsInfo)
			case *got.AllocsInfo > *b.AllocsInfo:
				fail("%s %s: %.0f allocs/op vs baseline %.0f — allocation increases are hard failures",
					b.Pkg, b.Name, *got.AllocsInfo, *b.AllocsInfo)
			}
		}
		// Custom metrics (b.ReportMetric output, e.g. points/s) carry no
		// universal better-direction, so drift beyond the tolerance is
		// reported as a note — unless the unit is declared in gated, in
		// which case a regression in the declared direction is a hard
		// failure (a throughput contract, like the sweep engine's
		// points/s). Units are visited in sorted order for stable output.
		units := make([]string, 0, len(b.Metrics))
		for unit := range b.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			bv := b.Metrics[unit]
			gv, ok := got.Metrics[unit]
			if !ok || bv == 0 {
				if _, declared := gated[unit]; declared && !ok {
					fail("%s %s: baseline records %s but this run did not report it",
						b.Pkg, b.Name, unit)
				}
				continue
			}
			r := gv / bv
			if r <= 1+tolerance && r >= 1-tolerance {
				continue
			}
			if higher, declared := gated[unit]; declared {
				if regressed := (higher && r < 1) || (!higher && r > 1); regressed {
					fail("%s %s: %.6g %s vs baseline %.6g (%+.0f%%, declared gate metric, tolerance %.0f%%)",
						b.Pkg, b.Name, gv, unit, bv, (r-1)*100, tolerance*100)
					continue
				}
				fmt.Fprintf(w, "note  %s %s: %.6g %s vs baseline %.6g (%+.0f%% better — refresh the baseline)\n",
					b.Pkg, b.Name, gv, unit, bv, (r-1)*100)
				continue
			}
			fmt.Fprintf(w, "note  %s %s: %.6g %s vs baseline %.6g (%+.0f%%)\n",
				b.Pkg, b.Name, gv, unit, bv, (r-1)*100)
		}
	}
	for _, b := range cur.Benchmarks {
		if _, unmatched := current[key{b.Pkg, b.Name}]; unmatched {
			fmt.Fprintf(w, "note  %s %s: not in baseline (new benchmark — refresh the baseline)\n", b.Pkg, b.Name)
		}
	}
	if failures == 0 {
		fmt.Fprintf(w, "ok    %d benchmarks within ±%.0f%% ns/op of baseline, no allocs/op increases\n",
			len(base.Benchmarks), tolerance*100)
	}
	return failures
}

func parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseBenchLine(line)
			if !ok {
				continue // a log line that happens to start with "Benchmark"
			}
			res.Pkg = pkg
			rep.Benchmarks = append(rep.Benchmarks, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// parseBenchLine parses one "BenchmarkX-N  iters  v unit  v unit ..." line.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	// Minimum shape: name, iteration count, and at least one value/unit pair.
	if len(fields) < 4 || (len(fields)-2)%2 != 0 {
		return Result{}, false
	}
	res := Result{Name: fields[0]}
	if i := strings.LastIndex(res.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(res.Name[i+1:]); err == nil {
			res.Name, res.Procs = res.Name[:i], procs
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			allocs := v
			res.AllocsInfo = &allocs
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = v
		}
	}
	return res, true
}
