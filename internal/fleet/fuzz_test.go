package fleet

import (
	"context"
	"reflect"
	"testing"

	"greengpu/internal/core"
	"greengpu/internal/faultinject"
	"greengpu/internal/runcache"
)

// FuzzFleetSpec drives ParseSpec with arbitrary input: parsing must never
// panic, accepted specs must validate, and parsing must be deterministic.
// Fleet evaluation itself is out of scope — the node cap alone makes a
// Run too expensive for a fuzz body — so the target pins the parse and
// validation surface the -fleet flag exposes.
func FuzzFleetSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"nodes=10000 seed=2026 classes=all workloads=all modes=baseline faults=0,1,2",
		"nodes=1000 classes=8800gtx,gtx280 modes=baseline,scaling,division,holistic deadline=1.1",
		"workloads=kmeans,nbody faults=0 iters=4",
		"nodes=99999999999",
		"faults=0,9 deadline=-1 bogus==x",
		"modes=warp classes=riva128",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("ParseSpec(%q) accepted a spec that fails Validate: %v", s, verr)
		}
		again, err := ParseSpec(s)
		if err != nil || !reflect.DeepEqual(spec, again) {
			t.Fatalf("ParseSpec(%q) is not deterministic", s)
		}
		if spec.Nodes < 1 || spec.Nodes > MaxNodes {
			t.Fatalf("ParseSpec(%q) let Nodes=%d through the cap", s, spec.Nodes)
		}
	})
}

// FuzzFleetMatchesNaive holds the dedup engine to the naive per-node loop
// on generated fleets: 1 to 64 nodes, a fuzzed seed, a subset of the
// device classes, of the workloads and of the modes (an empty subset is
// the spec default), fault levels drawn from 0 to 2, 1 to 4 iterations, a
// deadline factor (a negative or NaN factor turns deadlines off) and an
// ambient chaos plan on or off. Run must give RunNaive's aggregates without
// a cache, on a cold cache and on the same cache warm.
func FuzzFleetMatchesNaive(f *testing.F) {
	f.Add(uint8(59), uint64(DefaultSeed), uint8(0), uint16(0b10011000), uint8(0b1111), uint8(0b111), uint8(1), 1.1, false)
	f.Add(uint8(0), uint64(1), uint8(0b01), uint16(0b10000), uint8(0b0001), uint8(0b001), uint8(0), -1.0, false)
	f.Add(uint8(63), uint64(2012), uint8(0b10), uint16(0), uint8(0b1010), uint8(0b101), uint8(3), 0.95, true)
	f.Add(uint8(20), uint64(7), uint8(0b11), uint16(0b1_0000_0001), uint8(0b0100), uint8(0b110), uint8(2), 1e300, true)
	f.Fuzz(func(t *testing.T, nodes uint8, seed uint64, classMask uint8, workloadMask uint16, modeMask, levelMask, iters uint8,
		deadline float64, ambient bool) {
		spec := Spec{Nodes: int(nodes)%64 + 1, Seed: seed, Iterations: int(iters)%4 + 1}
		for i, name := range classNames {
			if classMask>>i&1 == 1 {
				spec.Classes = append(spec.Classes, name)
			}
		}
		for i, name := range rodiniaNames {
			if workloadMask>>i&1 == 1 {
				spec.Workloads = append(spec.Workloads, name)
			}
		}
		for m := core.Baseline; m <= core.Holistic; m++ {
			if modeMask>>m&1 == 1 {
				spec.Modes = append(spec.Modes, m)
			}
		}
		for lv := 0; lv <= 2; lv++ {
			if levelMask>>lv&1 == 1 {
				spec.FaultLevels = append(spec.FaultLevels, lv)
			}
		}
		if deadline >= 0 {
			spec.DeadlineFactor = deadline
		}
		var plan *faultinject.Plan
		if ambient {
			p := faultinject.Default(seed)
			plan = &p
		}
		naive, err := (&Engine{Jobs: 1, FaultPlan: plan}).RunNaive(spec)
		if err != nil {
			t.Fatal(err)
		}
		cache, err := runcache.New(runcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range []*Engine{{Jobs: 2}, {Jobs: 2, Cache: cache}, {Jobs: 2, Cache: cache}} {
			e.FaultPlan = plan
			res, err := e.Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Agg != naive {
				t.Fatalf("%+v, pass %d of uncached, cold, warm: dedup aggregates diverge from naive:\n dedup: %+v\n naive: %+v",
					spec, i, res.Agg, naive)
			}
		}
	})
}
