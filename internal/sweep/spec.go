// Package sweep evaluates batches of simulation points — cartesian
// frequency ladders, explicit point lists, Monte Carlo fault-plan draws —
// as a unit instead of N independent core.Run calls.
//
// Three mechanisms make a batch cheaper than its points run one at a time:
//
//  1. Shared level tables. The per-frequency-level constants of the GPU
//     and CPU (gpusim.Tables, cpusim.Tables) are built once per batch and
//     shared read-only across every point, so per-point setup collapses to
//     index arithmetic.
//
//  2. Incremental recomputation. Per workload, the batch builds the
//     baseline closed form, core.ClosedForm, once: each kernel phase's
//     per-domain busy times are tabulated separately against the core and
//     memory ladders (the timing model is separable below the final
//     max+γ·min combine). Neighboring points that differ in one knob reuse
//     the unchanged domain's column outright; the closed form then replays
//     the engine's accrual arithmetic in event order, which a golden test
//     pins byte-identical to the one-at-a-time path.
//
//  3. A shared run-cache tier. Eligible points are keyed with exactly the
//     same runcache fingerprints the per-point studies use, so sweeps,
//     repeated CI runs, and concurrent processes (see runcache file
//     locking) share hits.
//
// Points the closed form does not admit — scaling or dividing modes, armed
// fault plans, profiles with more phases than its loop holds, runs that
// could reach the simulation clock's horizon — fall back to a full
// simulation on a fresh machine, preserving correctness for every spec.
package sweep

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"greengpu/internal/core"
)

// Spec describes a batch of simulation points.
type Spec struct {
	// Workloads selects profiles by name; empty or ["all"] selects every
	// profile the engine knows.
	Workloads []string

	// Mode is the framework mode every point runs under.
	Mode core.Mode

	// Iterations overrides each profile's iteration count when > 0.
	Iterations int

	// CPULevel is the processor P-state for ladder points; -1 selects the
	// top state.
	CPULevel int

	// CoreLevels and MemLevels are GPU ladder indices to sweep; nil means
	// the device's full ladder.
	CoreLevels []int
	MemLevels  []int

	// Draws, when positive, replaces the ladder with Monte Carlo
	// fault-plan draws: each point runs the mode's default levels under
	// faultinject.Default seeded from Seed and the draw index.
	Draws int

	// Seed is the base seed for Monte Carlo draws.
	Seed uint64
}

// DefaultSeed seeds Monte Carlo draws when a spec does not name one. It
// matches the suite's chaos-mode seed so sweep draws and the resilience
// study stay comparable.
const DefaultSeed = 2012

// MaxRecords caps the iteration records one request can make the engines
// produce: points × resolved iterations for a sweep, distinct
// configurations × iterations for a fleet, the iteration count of one
// simulated point. Every record is one core.IterationStats (about 208
// bytes), so the cap bounds a request's results to about 52 MiB. The
// largest studies stay far below it: the 24×24 predict validation
// evaluates 20,736 records.
const MaxRecords = 1 << 18

// errTooManyRecords is the error for a spec over MaxRecords.
var errTooManyRecords = fmt.Errorf("sweep: spec asks for more than %d iteration records", MaxRecords)

// Validate reports the first statically checkable problem with the spec.
// Level indices and workload names are resolved against a concrete engine
// by Engine.Plan, which also checks MaxRecords against the resolved
// points and iteration counts.
func (s *Spec) Validate() error {
	switch {
	case s.Mode < core.Baseline || s.Mode > core.Holistic:
		return fmt.Errorf("sweep: unknown mode %d", int(s.Mode))
	case s.Iterations < 0:
		return fmt.Errorf("sweep: Iterations must be non-negative")
	case s.CPULevel < -1:
		return fmt.Errorf("sweep: CPULevel must be -1 (peak) or a P-state index")
	case s.Draws < 0:
		return fmt.Errorf("sweep: Draws must be non-negative")
	case s.Iterations > MaxRecords || s.Draws > MaxRecords/max(s.Iterations, 1):
		// Every spec has at least one point and one iteration per point.
		return errTooManyRecords
	}
	for _, w := range s.Workloads {
		if strings.TrimSpace(w) == "" {
			return fmt.Errorf("sweep: empty workload name")
		}
	}
	for _, dom := range [][]int{s.CoreLevels, s.MemLevels} {
		for _, l := range dom {
			if l < 0 {
				return fmt.Errorf("sweep: negative ladder index %d", l)
			}
		}
	}
	return nil
}

// Point is one simulation point of an expanded spec.
type Point struct {
	Workload string
	// Draw is the Monte Carlo draw index, or -1 for a ladder point.
	Draw int
	// Core, Mem and CPU are the pinned initial levels of a ladder point;
	// all -1 for a draw point, which runs the mode's default levels.
	Core, Mem, CPU int
}

// ParseSpec parses the cmd/experiments -sweep mini-language: whitespace
// separated key=value tokens.
//
//	workloads=kmeans,nbody | all   profiles to sweep        (default all)
//	core=all | 2 | 0-3 | 0,2,5     GPU core ladder indices  (default all)
//	mem=all | 2 | 0-3 | 0,2,5      GPU memory ladder indices(default all)
//	cpu=peak | 3                   processor P-state        (default peak)
//	iters=4                        iterations per point     (default 4)
//	mode=baseline | scaling | division | holistic  (default baseline)
//	draws=100                      Monte Carlo draws, replaces the ladder
//	seed=2012                      base seed for draws
//
// The default iteration count matches the per-point frequency studies
// (Fig. 1), so ladder points share their run-cache keys.
func ParseSpec(s string) (Spec, error) {
	spec := Spec{CPULevel: -1, Iterations: 4, Seed: DefaultSeed}
	err := ParseTokens("sweep", s, &spec.Workloads, func(k, v string) (bool, error) {
		var err error
		switch k {
		case "core":
			spec.CoreLevels, err = parseLevels(v)
		case "mem":
			spec.MemLevels, err = parseLevels(v)
		case "cpu":
			if v == "peak" {
				spec.CPULevel = -1
			} else {
				spec.CPULevel, err = parseIndex(v)
			}
		case "iters":
			spec.Iterations, err = parseIndex(v)
		case "draws":
			spec.Draws, err = parseIndex(v)
		case "seed":
			spec.Seed, err = strconv.ParseUint(v, 10, 64)
		case "mode":
			spec.Mode, err = core.ParseMode(v)
		default:
			return false, nil
		}
		return true, err
	})
	if err != nil {
		return Spec{}, err
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// ParseTokens is the key=value tokenizer behind the sweep and fleet spec
// mini-languages. It splits s on whitespace, parses the shared
// "workloads=a,b | all" key into *workloads (leaving it as is for "all"),
// and hands every other key to set, which reports whether it knows the
// key. Errors carry the language's name as their prefix: a token without
// a value, an unknown key, an empty workload name, and set's own value
// errors, wrapped with the offending token.
func ParseTokens(lang, s string, workloads *[]string, set func(k, v string) (bool, error)) error {
	for _, tok := range strings.Fields(s) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok || v == "" {
			return fmt.Errorf("%s: token %q is not key=value", lang, tok)
		}
		if k == "workloads" {
			if v != "all" {
				*workloads = strings.Split(v, ",")
				if slices.Contains(*workloads, "") {
					return fmt.Errorf("%s: empty workload in %q", lang, tok)
				}
			}
			continue
		}
		known, err := set(k, v)
		if !known {
			return fmt.Errorf("%s: unknown key %q", lang, k)
		}
		if err != nil {
			return fmt.Errorf("%s: bad value in %q: %w", lang, tok, err)
		}
	}
	return nil
}

// parseLevels parses a ladder selector: "all", a single index, an
// inclusive range "a-b", or a comma list of both.
func parseLevels(v string) ([]int, error) {
	if v == "all" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(v, ",") {
		if a, b, ok := strings.Cut(part, "-"); ok {
			lo, err := parseIndex(a)
			if err != nil {
				return nil, err
			}
			hi, err := parseIndex(b)
			if err != nil {
				return nil, err
			}
			if hi < lo {
				return nil, fmt.Errorf("range %q is descending", part)
			}
			if hi-lo >= maxRangeSpan {
				return nil, fmt.Errorf("range %q spans more than %d levels", part, maxRangeSpan)
			}
			for l := lo; l <= hi; l++ {
				out = append(out, l)
			}
			continue
		}
		l, err := parseIndex(part)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	return out, nil
}

// maxRangeSpan bounds a single a-b ladder range. Real ladders have a
// handful of levels; the bound keeps a typo ("0-999999999") from
// materializing a giant slice before Plan rejects the indices.
const maxRangeSpan = 4096

func parseIndex(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("negative index %d", n)
	}
	return n, nil
}
