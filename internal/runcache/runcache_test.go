package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"greengpu/internal/bus"
	"greengpu/internal/core"
	"greengpu/internal/cpusim"
	"greengpu/internal/division"
	"greengpu/internal/dvfs"
	"greengpu/internal/faultinject"
	"greengpu/internal/gpusim"
	"greengpu/internal/predict"
	"greengpu/internal/telemetry"
	"greengpu/internal/testbed"
	"greengpu/internal/units"
	"greengpu/internal/workload"
)

// fixture returns the default testbed configurations and one calibrated
// profile, the realistic inputs every fingerprint test keys on.
func fixture(t *testing.T) (gpusim.Config, cpusim.Config, bus.Config, *workload.Profile) {
	t.Helper()
	gpu, cpu, b := testbed.GeForce8800GTX(), testbed.PhenomIIX2(), testbed.PCIe()
	profiles, err := workload.Rodinia(gpu, cpu)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.ByName(profiles, "kmeans")
	if err != nil {
		t.Fatal(err)
	}
	return gpu, cpu, b, p
}

// sampleValue fabricates a fully populated value, so clone/gob tests cover
// every field that must survive the trip.
func sampleValue() Value {
	return Value{
		Result: &core.Result{
			Workload: "kmeans",
			Mode:     core.Holistic,
			Iterations: []core.IterationStats{
				{Index: 0, R: 0.3, TC: time.Second, TG: 2 * time.Second, WallTime: 2 * time.Second,
					Energy: 100, EnergyGPU: 60, EnergyCPU: 40, CoreLevel: 3, MemLevel: 2, CPULevel: 1},
				{Index: 1, R: 0.25, TC: time.Second, TG: time.Second, WallTime: time.Second,
					Energy: 80, EnergyGPU: 50, EnergyCPU: 30, CoreLevel: 4, MemLevel: 3, CPULevel: 0},
			},
			TotalTime:  3 * time.Second,
			Energy:     180,
			EnergyGPU:  110,
			EnergyCPU:  70,
			SpinTime:   time.Second / 2,
			SpinEnergy: 5,
			FinalRatio: 0.25,
			DivisionHistory: []division.Observation{
				{Iteration: 0, R: 0.3, TC: time.Second, TG: 2 * time.Second, Action: division.ActionDecrease, NewR: 0.25},
			},
			DVFSSteps: 7,
		},
		GPUPower: []float64{118.2, 120.1, 95.4},
		Predict: &predict.Outcome{
			Core: 3, Mem: 2, Verified: true,
			FullEvals: 9, Points: 36,
			Time: 3 * time.Second, Energy: 180,
		},
	}
}

func TestKeyDeterministic(t *testing.T) {
	gpu, cpu, b, p := fixture(t)
	cfg := core.DefaultConfig(core.Holistic)
	k1 := KeyOf(&gpu, &cpu, &b, p, &cfg, "")
	k2 := KeyOf(&gpu, &cpu, &b, p, &cfg, "")
	if k1 != k2 {
		t.Fatal("same inputs produced different keys")
	}
}

// TestKeySensitivity mutates every semantic dimension of the fingerprint's
// inputs and asserts each one reaches the hash. A mutation the key ignores
// would silently serve one configuration's results for another.
func TestKeySensitivity(t *testing.T) {
	gpu, cpu, b, p := fixture(t)
	base := func() core.Config { return core.DefaultConfig(core.Holistic) }
	cfg := base()
	k0 := KeyOf(&gpu, &cpu, &b, p, &cfg, "")

	mutations := []struct {
		name string
		key  func() Key
	}{
		{"variant", func() Key { c := base(); return KeyOf(&gpu, &cpu, &b, p, &c, "gpu-meter") }},
		{"mode", func() Key { c := core.DefaultConfig(core.Baseline); return KeyOf(&gpu, &cpu, &b, p, &c, "") }},
		{"iterations", func() Key { c := base(); c.Iterations = 5; return KeyOf(&gpu, &cpu, &b, p, &c, "") }},
		{"dvfs interval", func() Key { c := base(); c.DVFSInterval = time.Second; return KeyOf(&gpu, &cpu, &b, p, &c, "") }},
		{"scaler params", func() Key { c := base(); c.GPUScaler.Beta = 0.5; return KeyOf(&gpu, &cpu, &b, p, &c, "") }},
		{"fixed8", func() Key { c := base(); c.Fixed8Scaler = true; return KeyOf(&gpu, &cpu, &b, p, &c, "") }},
		{"sm scaling", func() Key { c := base(); c.SMScaling = true; return KeyOf(&gpu, &cpu, &b, p, &c, "") }},
		{"division step", func() Key { c := base(); c.Division.Step = 0.1; return KeyOf(&gpu, &cpu, &b, p, &c, "") }},
		{"safeguard", func() Key { c := base(); c.Division.Safeguard = false; return KeyOf(&gpu, &cpu, &b, p, &c, "") }},
		{"spinwait", func() Key { c := base(); c.SpinWait = false; return KeyOf(&gpu, &cpu, &b, p, &c, "") }},
		{"initial levels", func() Key {
			c := base()
			c.InitialLevels = &core.Levels{Core: 1, Mem: 1, CPU: 1}
			return KeyOf(&gpu, &cpu, &b, p, &c, "")
		}},
		{"fault plan armed", func() Key {
			c := base()
			pl := faultinject.Default(1)
			c.FaultPlan = &pl
			return KeyOf(&gpu, &cpu, &b, p, &c, "")
		}},
		{"fault plan seed", func() Key {
			c := base()
			pl := faultinject.Default(2)
			c.FaultPlan = &pl
			return KeyOf(&gpu, &cpu, &b, p, &c, "")
		}},
		{"fault plan intensity", func() Key {
			c := base()
			pl := faultinject.Default(1)
			pl.TransitionRejectRate = 0.5
			c.FaultPlan = &pl
			return KeyOf(&gpu, &cpu, &b, p, &c, "")
		}},
		{"static ratio", func() Key {
			c := core.DefaultConfig(core.FreqScaling)
			r := 0.2
			c.StaticRatio = &r
			kA := KeyOf(&gpu, &cpu, &b, p, &c, "")
			// ... and the pointed-to value matters, not just presence.
			r2 := 0.3
			c.StaticRatio = &r2
			if kA == KeyOf(&gpu, &cpu, &b, p, &c, "") {
				t.Error("static ratio value not fingerprinted")
			}
			return kA
		}},
		{"gpu config", func() Key {
			g := gpu
			g.OverlapGamma += 0.01
			c := base()
			return KeyOf(&g, &cpu, &b, p, &c, "")
		}},
		{"gpu power", func() Key {
			g := gpu
			g.Power.CoreDynamic += 1
			c := base()
			return KeyOf(&g, &cpu, &b, p, &c, "")
		}},
		{"gpu levels", func() Key {
			g := gpu
			g.CoreLevels = append([]units.Frequency(nil), g.CoreLevels...)
			g.CoreLevels[0]++
			c := base()
			return KeyOf(&g, &cpu, &b, p, &c, "")
		}},
		{"cpu config", func() Key {
			cp := cpu
			cp.Cores++
			c := base()
			return KeyOf(&gpu, &cp, &b, p, &c, "")
		}},
		{"cpu pstates", func() Key {
			cp := cpu
			cp.PStates = append([]cpusim.PState(nil), cp.PStates...)
			cp.PStates[0].Voltage += 0.01
			c := base()
			return KeyOf(&gpu, &cp, &b, p, &c, "")
		}},
		{"bus config", func() Key {
			bc := b
			bc.Latency += time.Microsecond
			c := base()
			return KeyOf(&gpu, &cpu, &bc, p, &c, "")
		}},
		{"profile", func() Key {
			p2 := *p
			p2.CPUOpsPerUnit *= 1.5
			c := base()
			return KeyOf(&gpu, &cpu, &b, &p2, &c, "")
		}},
		{"profile phases", func() Key {
			p2 := *p
			p2.Phases = append([]workload.PhaseSpec(nil), p2.Phases...)
			p2.Phases[0].OpsPerUnit++
			c := base()
			return KeyOf(&gpu, &cpu, &b, &p2, &c, "")
		}},
	}
	seen := map[Key]string{k0: "base"}
	for _, m := range mutations {
		k := m.key()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", m.name, prev)
		}
		seen[k] = m.name
	}
}

// TestKeyStability pins the keys of a fixed set of points on the testbed
// devices: every Rodinia profile under each mode's default configuration,
// plus one point for each optional field and for the gpu-meter variant. A
// disk cache filled by an earlier build must stay reachable, so an edit to
// the encoder that moves any key fails here.
func TestKeyStability(t *testing.T) {
	const want = "52d8a4a388db7a545d708976240de6af2d17727311cd4e48a81ba1d0ff33d097"
	gpu, cpu, b := testbed.GeForce8800GTX(), testbed.PhenomIIX2(), testbed.PCIe()
	profiles, err := workload.Rodinia(gpu, cpu)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	add := func(p *workload.Profile, mode core.Mode, variant string, set func(*core.Config)) {
		c := core.DefaultConfig(mode)
		c.Iterations = 4
		if set != nil {
			set(&c)
		}
		k := KeyOf(&gpu, &cpu, &b, p, &c, variant)
		h.Write(k[:])
	}
	for _, p := range profiles {
		for _, mode := range []core.Mode{core.Baseline, core.FreqScaling, core.Division, core.Holistic} {
			add(p, mode, "", nil)
		}
	}
	p := profiles[0]
	add(p, core.Baseline, "", func(c *core.Config) { c.InitialLevels = &core.Levels{} })
	add(p, core.FreqScaling, "", func(c *core.Config) { r := 0.2; c.StaticRatio = &r })
	add(p, core.Holistic, "", func(c *core.Config) { pl := faultinject.Default(2012); c.FaultPlan = &pl })
	add(p, core.Baseline, "gpu-meter", nil)
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("keys over the fixed point set hash to %s, want %s: an encoder edit moved a key. "+
			"If the change is meant to, bump SchemaVersion and update this constant together", got, want)
	}
}

func TestCacheable(t *testing.T) {
	ok := core.DefaultConfig(core.Holistic)
	if !Cacheable(&ok) {
		t.Error("default config reported non-cacheable")
	}
	cases := map[string]func(*core.Config){
		"DivisionPolicy": func(c *core.Config) { c.DivisionPolicy = division.NewQilin(division.DefaultQilinConfig()) },
		"ActuatorFilter": func(c *core.Config) { c.ActuatorFilter = func(d dvfs.Decision) dvfs.Decision { return d } },
		"OnDVFS":         func(c *core.Config) { c.OnDVFS = func(time.Duration, float64, float64, dvfs.Decision) {} },
		"OnCPUGovernor":  func(c *core.Config) { c.OnCPUGovernor = func(time.Duration, float64, int) {} },
		"OnIteration":    func(c *core.Config) { c.OnIteration = func(core.IterationStats) {} },
	}
	for name, set := range cases {
		cfg := core.DefaultConfig(core.Holistic)
		set(&cfg)
		if Cacheable(&cfg) {
			t.Errorf("config with %s reported cacheable", name)
		}
	}
}

func TestKeyOfPanicsOnNonCacheable(t *testing.T) {
	gpu, cpu, b, p := fixture(t)
	cfg := core.DefaultConfig(core.Holistic)
	cfg.OnIteration = func(core.IterationStats) {}
	defer func() {
		if recover() == nil {
			t.Error("KeyOf accepted a non-cacheable configuration")
		}
	}()
	KeyOf(&gpu, &cpu, &b, p, &cfg, "")
}

// TestSingleFlight hammers one key from many goroutines and asserts exactly
// one underlying computation ran, with every caller receiving its result.
// Run under -race this also proves the entry lifecycle is data-race free.
func TestSingleFlight(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var key Key
	key[0] = 7

	const goroutines = 64
	var computes atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{}, goroutines)

	var wg sync.WaitGroup
	results := make([]Value, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			v, err := c.Do(key, func() (Value, error) {
				computes.Add(1)
				<-release // hold the flight open until every goroutine has launched
				return sampleValue(), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = v
		}(i)
	}
	for i := 0; i < goroutines; i++ {
		<-started
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times, want exactly 1", n)
	}
	want := sampleValue()
	for i, v := range results {
		if !reflect.DeepEqual(v, want) {
			t.Fatalf("goroutine %d got a divergent value", i)
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1", s.Misses)
	}
	if s.Hits+s.Waits != goroutines-1 {
		t.Errorf("hits (%d) + waits (%d) = %d, want %d", s.Hits, s.Waits, s.Hits+s.Waits, goroutines-1)
	}
	if s.Entries != 1 {
		t.Errorf("entries = %d, want 1", s.Entries)
	}
}

// TestStatsSub pins the per-phase delta helper cmd/experiments uses to
// report one pass of a cumulative cache: counters subtract, the entry
// count stays the receiver's (it is a level, not a flow).
func TestStatsSub(t *testing.T) {
	later := Stats{Hits: 10, DiskHits: 4, Misses: 6, Waits: 3, Corrupt: 1, Entries: 6}
	earlier := Stats{Hits: 7, DiskHits: 4, Misses: 2, Waits: 1, Entries: 2}
	want := Stats{Hits: 3, DiskHits: 0, Misses: 4, Waits: 2, Corrupt: 1, Entries: 6}
	if got := later.Sub(earlier); got != want {
		t.Errorf("Sub = %+v, want %+v", got, want)
	}
	if got := later.Sub(Stats{}); got != later {
		t.Errorf("Sub(zero) = %+v, want the receiver unchanged", got)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var key Key
	boom := errors.New("boom")
	if _, err := c.Do(key, func() (Value, error) { return Value{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	// The failed entry must not stick: the next Do retries and succeeds.
	v, err := c.Do(key, func() (Value, error) { return sampleValue(), nil })
	if err != nil {
		t.Fatalf("retry after error failed: %v", err)
	}
	if v.Result == nil {
		t.Fatal("retry returned empty value")
	}
	if s := c.Stats(); s.Entries != 1 || s.Misses != 2 {
		t.Errorf("stats after retry = %+v, want 1 entry, 2 misses", s)
	}
}

// TestResultImmutability pins the frozen-result contract: what Do returns
// is a private deep copy, so mutating it cannot corrupt what later callers
// see.
func TestResultImmutability(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var key Key
	first, err := c.Do(key, func() (Value, error) { return sampleValue(), nil })
	if err != nil {
		t.Fatal(err)
	}
	// Vandalize everything reachable from the returned value.
	first.Result.Energy = -1
	first.Result.Iterations[0].R = 99
	first.Result.DivisionHistory[0].NewR = 99
	first.GPUPower[0] = -1
	first.Predict.Core = 99

	second, err := c.Do(key, func() (Value, error) {
		t.Fatal("hit recomputed")
		return Value{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, sampleValue()) {
		t.Fatal("cached value was corrupted through a returned copy")
	}
}

// TestCloneCoversResultFields fails when core.Result (or the value struct)
// grows a field, as a reminder to extend Value.clone — a shallow-copied
// new slice field would break the immutability contract silently.
func TestCloneCoversResultFields(t *testing.T) {
	if n := reflect.TypeOf(core.Result{}).NumField(); n != 14 {
		t.Errorf("core.Result has %d fields, clone was written for 14 — update Value.clone and this count", n)
	}
	if n := reflect.TypeOf(Value{}).NumField(); n != 3 {
		t.Errorf("Value has %d fields, clone was written for 3 — update Value.clone and this count", n)
	}
	if n := reflect.TypeOf(predict.Outcome{}).NumField(); n != 8 {
		t.Errorf("predict.Outcome has %d fields, clone was written for 8 — update Value.clone and this count", n)
	}
}

// TestFingerprintCoversConfigFields fails when any fingerprinted struct
// grows a field the encoder does not know about: an unencoded field means
// two semantically different configurations could share a key. Update the
// encoder AND bump SchemaVersion, then adjust the counts.
func TestFingerprintCoversConfigFields(t *testing.T) {
	counts := []struct {
		name string
		typ  reflect.Type
		want int
	}{
		{"gpusim.Config", reflect.TypeOf(gpusim.Config{}), 9},
		{"gpusim.PowerParams", reflect.TypeOf(gpusim.PowerParams{}), 6},
		{"cpusim.Config", reflect.TypeOf(cpusim.Config{}), 5},
		{"cpusim.PowerParams", reflect.TypeOf(cpusim.PowerParams{}), 3},
		{"cpusim.PState", reflect.TypeOf(cpusim.PState{}), 2},
		{"bus.Config", reflect.TypeOf(bus.Config{}), 3},
		{"workload.Profile", reflect.TypeOf(workload.Profile{}), 9},
		{"workload.PhaseSpec", reflect.TypeOf(workload.PhaseSpec{}), 5},
		{"core.Config", reflect.TypeOf(core.Config{}), 16},
		{"core.Levels", reflect.TypeOf(core.Levels{}), 3},
		{"faultinject.Plan", reflect.TypeOf(faultinject.Plan{}), 15},
		{"division.Config", reflect.TypeOf(division.Config{}), 5},
		{"dvfs.Params", reflect.TypeOf(dvfs.Params{}), 4},
	}
	for _, c := range counts {
		if n := c.typ.NumField(); n != c.want {
			t.Errorf("%s has %d fields, the canonical encoding was written for %d — extend the encoder, bump SchemaVersion, update this count",
				c.name, n, c.want)
		}
	}
}

func TestDiskLayerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var key Key
	key[1] = 3

	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want, err := c1.Do(key, func() (Value, error) { return sampleValue(), nil })
	if err != nil {
		t.Fatal(err)
	}

	// A second cache over the same directory — a fresh process — must
	// serve the point from disk without recomputing.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Do(key, func() (Value, error) {
		t.Fatal("disk entry recomputed")
		return Value{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("disk round trip altered the value")
	}
	s := c2.Stats()
	if s.DiskHits != 1 || s.Misses != 0 {
		t.Errorf("stats = %+v, want 1 disk hit and no misses", s)
	}
}

func TestDiskLayerVersionStamp(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var key Key
	if _, err := c.Do(key, func() (Value, error) { return sampleValue(), nil }); err != nil {
		t.Fatal(err)
	}
	// Entries must live under the version-stamped subdirectory, so a
	// schema bump orphans them instead of serving stale physics.
	versioned := filepath.Join(dir, fmt.Sprintf("v%d", SchemaVersion))
	files, err := os.ReadDir(versioned)
	if err != nil {
		t.Fatalf("version-stamped dir missing: %v", err)
	}
	gobs := 0
	for _, f := range files {
		if filepath.Ext(f.Name()) == ".gob" {
			gobs++
		}
	}
	if gobs != 1 {
		t.Fatalf("%d gob entries under %s, want 1", gobs, versioned)
	}
	// An entry filed under a different (stale) version is invisible.
	stale := filepath.Join(dir, fmt.Sprintf("v%d", SchemaVersion+1))
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	var other Key
	other[2] = 9
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	if _, err := c2.Do(other, func() (Value, error) { ran = true; return sampleValue(), nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("unknown key served without computing")
	}
}

func TestDiskLayerCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var key Key
	key[3] = 1
	// Plant a truncated file where the entry would live.
	if err := os.WriteFile(c.path(key), []byte("not gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	ran := false
	v, err := c.Do(key, func() (Value, error) { ran = true; return sampleValue(), nil })
	if err != nil {
		t.Fatal(err)
	}
	if !ran || v.Result == nil {
		t.Fatal("corrupt entry served instead of recomputed")
	}
	// The corrupt bytes must be quarantined, not destroyed, and counted.
	if _, err := os.Stat(c.path(key) + ".bad"); err != nil {
		t.Errorf("corrupt entry not quarantined: %v", err)
	}
	if got := c.Stats().Corrupt; got != 1 {
		t.Errorf("Stats.Corrupt = %d, want 1", got)
	}
	// The recomputed value must have replaced the corrupt file.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Do(key, func() (Value, error) {
		t.Fatal("repaired entry recomputed")
		return Value{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleValue()) {
		t.Fatal("repaired entry does not round-trip")
	}
}

// TestDiskLayerTruncatedEntry simulates the real failure: a process was
// killed mid-history and left a half-written (here: half of a previously
// valid) entry. A fresh cache must recover transparently — the run
// succeeds, the stump is quarantined to .bad, and the corruption counter
// (per-instance Stats and the process-wide telemetry metric) increments.
func TestDiskLayerTruncatedEntry(t *testing.T) {
	const metric = "greengpu_runcache_corrupt_total"
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	before := telemetry.Default.CounterValue(metric)

	dir := t.TempDir()
	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var key Key
	key[5] = 7
	if _, err := c1.Do(key, func() (Value, error) { return sampleValue(), nil }); err != nil {
		t.Fatal(err)
	}

	// Truncate the valid on-disk entry to half its length.
	path := c1.path(key)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	got, err := c2.Do(key, func() (Value, error) { ran = true; return sampleValue(), nil })
	if err != nil {
		t.Fatalf("run failed on a truncated cache entry: %v", err)
	}
	if !ran {
		t.Fatal("truncated entry was served instead of recomputed")
	}
	if !reflect.DeepEqual(got, sampleValue()) {
		t.Fatal("recovered value is wrong")
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Errorf("truncated entry not quarantined: %v", err)
	}
	if s := c2.Stats(); s.Corrupt != 1 {
		t.Errorf("Stats.Corrupt = %d, want 1", s.Corrupt)
	}
	if after := telemetry.Default.CounterValue(metric); after != before+1 {
		t.Errorf("%s went %d → %d, want +1", metric, before, after)
	}
	// The repaired entry must serve cleanly from disk again.
	c3, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Do(key, func() (Value, error) {
		t.Fatal("repaired entry recomputed")
		return Value{}, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryRecordBudgetEviction lowers the in-memory records budget to two
// sample entries' worth and checks completed entries are evicted
// least-recently-used first once the held iteration records exceed it.
func TestMemoryRecordBudgetEviction(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.maxRecords != maxMemRecords {
		t.Fatalf("budget = %d records, want %d", c.maxRecords, maxMemRecords)
	}
	perEntry := len(sampleValue().Result.Iterations)
	c.maxRecords = 2 * perEntry
	mk := func(i byte) Key { var k Key; k[0] = i; return k }
	for i := byte(1); i <= 3; i++ {
		if _, err := c.Do(mk(i), func() (Value, error) { return sampleValue(), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Entries != 2 || c.records != 2*perEntry {
		t.Fatalf("entries = %d holding %d records, want 2 holding %d", s.Entries, c.records, 2*perEntry)
	}
	// Key 1 was least recently used and must have been evicted.
	recomputed := false
	if _, err := c.Do(mk(1), func() (Value, error) { recomputed = true; return sampleValue(), nil }); err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Error("evicted key served from memory")
	}
	// Recomputing 1 re-filled the budget, displacing 2 (now the LRU entry);
	// 3 must still be resident.
	if _, err := c.Do(mk(3), func() (Value, error) {
		t.Error("key 3 evicted despite being within the budget")
		return sampleValue(), nil
	}); err != nil {
		t.Fatal(err)
	}
	// A value without iteration records (a memoized search) weighs one
	// record: adding it pushes the total over and evicts the LRU entry, 1.
	if _, err := c.Do(mk(4), func() (Value, error) { return Value{Predict: sampleValue().Predict}, nil }); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Entries != 2 || c.records != perEntry+1 {
		t.Fatalf("entries = %d holding %d records, want 2 holding %d", s.Entries, c.records, perEntry+1)
	}
}

// gobLayerSize sums the on-disk gob entries under the cache's versioned
// directory (lock and quarantine files don't count against the cap).
func gobLayerSize(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && filepath.Ext(path) == ".gob" {
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// TestMaxDiskBytesEviction fills the disk layer well past its byte cap and
// verifies the layer shrinks back under it, keeping the newest entry.
func TestMaxDiskBytesEviction(t *testing.T) {
	probeDir := t.TempDir()
	probe, err := New(Options{Dir: probeDir})
	if err != nil {
		t.Fatal(err)
	}
	var probeKey Key
	if _, err := probe.Do(probeKey, func() (Value, error) { return sampleValue(), nil }); err != nil {
		t.Fatal(err)
	}
	sz := gobLayerSize(t, probeDir)
	if sz == 0 {
		t.Fatal("probe entry not stored")
	}

	dir := t.TempDir()
	cap := 2*sz + sz/2 // room for two entries, not three
	c, err := New(Options{Dir: dir, MaxDiskBytes: cap})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i byte) Key { var k Key; k[0] = i; return k }
	const n = 5
	for i := byte(0); i < n; i++ {
		if _, err := c.Do(mk(i), func() (Value, error) { return sampleValue(), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := gobLayerSize(t, dir); got > cap {
		t.Errorf("disk layer holds %d bytes, cap is %d", got, cap)
	}

	// The most recently stored entry must have survived every sweep: a
	// fresh cache over the directory serves it without recomputing.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Do(mk(n-1), func() (Value, error) {
		t.Error("newest entry was evicted")
		return sampleValue(), nil
	}); err != nil {
		t.Fatal(err)
	}
	// And at least one older entry must be gone.
	recomputed := false
	for i := byte(0); i < n-1 && !recomputed; i++ {
		if _, err := c2.Do(mk(i), func() (Value, error) {
			recomputed = true
			return sampleValue(), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !recomputed {
		t.Error("no entry was evicted despite exceeding the cap")
	}
}

// TestMaxDiskBytesSingleOversizedEntry pins the degenerate case: an entry
// larger than the whole budget cannot stay on disk either.
func TestMaxDiskBytesSingleOversizedEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir, MaxDiskBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	var key Key
	if _, err := c.Do(key, func() (Value, error) { return sampleValue(), nil }); err != nil {
		t.Fatal(err)
	}
	if got := gobLayerSize(t, dir); got > 1 {
		t.Errorf("disk layer holds %d bytes under a 1-byte cap", got)
	}
}

func TestNegativeMaxDiskBytes(t *testing.T) {
	if _, err := New(Options{MaxDiskBytes: -1}); err == nil {
		t.Error("negative MaxDiskBytes accepted")
	}
}

// TestDiskLockSingleFlightAcrossCaches verifies the per-key file lock
// extends single flight across cache instances sharing a directory — the
// in-process stand-in for two concurrent processes.
func TestDiskLockSingleFlightAcrossCaches(t *testing.T) {
	dir := t.TempDir()
	var key Key
	key[0] = 9
	var computes atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 2; i++ {
		c, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c *Cache) {
			defer wg.Done()
			<-start
			if _, err := c.Do(key, func() (Value, error) {
				computes.Add(1)
				time.Sleep(50 * time.Millisecond)
				return sampleValue(), nil
			}); err != nil {
				t.Error(err)
			}
		}(c)
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("point computed %d times across caches sharing a directory, want 1", n)
	}
}
