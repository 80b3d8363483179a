package sweep

import (
	"reflect"
	"testing"
)

// FuzzSweepSpec drives ParseSpec with arbitrary input: parsing must never
// panic, accepted specs must validate, and expansion against a fixed
// engine must be deterministic across calls.
func FuzzSweepSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"workloads=all core=all mem=all cpu=peak iters=4",
		"workloads=kmeans,nbody core=0-2 mem=1,3,5 cpu=0 mode=holistic",
		"draws=8 seed=2012 mode=scaling",
		"core=0-99999999999",
		"core=2-0 bogus==x",
		"draws=1000000",
		"core=all mem=all iters=100000000",
	} {
		f.Add(seed)
	}
	e := testEngine(f)
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("ParseSpec(%q) accepted a spec that fails Validate: %v", s, verr)
		}
		a, errA := e.Plan(spec)
		b, errB := e.Plan(spec)
		if (errA == nil) != (errB == nil) || !reflect.DeepEqual(a.Points, b.Points) {
			t.Fatalf("Plan(%q) is not deterministic", s)
		}
	})
}
