package cpusim

import "greengpu/internal/units"

// Tables holds the per-P-state derived constants of a CPU configuration,
// decoupled from any live device: the same flattened tables the CPU hot
// paths index, built once and shared read-only across a whole batch of
// simulation points (see core.ClosedForm, which internal/sweep builds per
// batch).
//
// Entries are computed by exactly the same code the device uses, so power
// and job timing derived from a Tables are bit-identical to what a freshly
// assembled device reports at the same level and busy-core count.
type Tables struct {
	// BasePower[l] is Platform + static leakage at P-state l.
	BasePower []units.Power
	// DynPower[l·Stride+n] is dynamic switching power with n busy cores
	// at P-state l.
	DynPower []units.Power
	// JobDenom[l·Stride+n] is ops/s of an n-thread job at P-state l:
	// n·IPC·f. Zero when n is zero.
	JobDenom []float64
	// Stride is the row stride of the 2-D tables: Cores+1.
	Stride int
}

// BuildTables validates cfg and derives its P-state tables.
func BuildTables(cfg Config) (*Tables, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Tables{}
	fillTables(&cfg, t)
	return t, nil
}

// fillTables allocates and populates the derived tables. Shared by the live
// device and BuildTables so both produce bit-identical entries: the
// busy-core and thread dimensions are tabulated (rather than factored into
// ratio products) because float multiplication is non-associative.
func fillTables(cfg *Config, t *Tables) {
	top := cfg.PStates[len(cfg.PStates)-1]
	t.Stride = cfg.Cores + 1
	t.BasePower = make([]units.Power, len(cfg.PStates))
	t.DynPower = make([]units.Power, len(cfg.PStates)*t.Stride)
	t.JobDenom = make([]float64, len(cfg.PStates)*t.Stride)
	for l, ps := range cfg.PStates {
		vr := float64(ps.Voltage) / float64(top.Voltage)
		fr := float64(ps.Frequency) / float64(top.Frequency)
		t.BasePower[l] = cfg.Power.Platform + units.Power(float64(cfg.Cores)*vr)*cfg.Power.StaticPerCore
		for n := 0; n <= cfg.Cores; n++ {
			t.DynPower[l*t.Stride+n] = units.Power(float64(n)*fr*vr*vr) * cfg.Power.DynPerCore
			if n > 0 {
				t.JobDenom[l*t.Stride+n] = float64(n) * cfg.IPC * float64(ps.Frequency)
			}
		}
	}
}

// PowerAt returns CPU-side power at P-state level with the given number of
// busy cores, exactly as a live device in that state would report.
func (t *Tables) PowerAt(level, busyCores int) units.Power {
	return t.BasePower[level] + t.DynPower[level*t.Stride+busyCores]
}
