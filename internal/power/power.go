// Package power provides power metering for the simulated testbed,
// modelled on the two Wattsup Pro wall meters of the GreenGPU setup
// (paper §VI, Fig. 4): meter 1 on the CPU side of the box (motherboard,
// disk, main memory and processor), meter 2 on the dedicated ATX supply
// feeding the GPU card.
//
// A Meter periodically samples an instantaneous-power source, quantizes the
// reading to the instrument's resolution, and accumulates a trace. Energy
// can be estimated from the sample trace (as the real instrument reports
// it), which the experiments compare against the simulator's exact analytic
// energy integrals to validate sampling error.
package power

import (
	"fmt"
	"math"
	"time"

	"greengpu/internal/sim"
	"greengpu/internal/units"
)

// Sample is one meter reading.
type Sample struct {
	At    time.Duration
	Power units.Power
}

// Config describes a meter.
type Config struct {
	Name string
	// Interval is the sampling period. The Wattsup Pro logs at 1 Hz.
	Interval time.Duration
	// Resolution quantizes readings; the Wattsup Pro reports 0.1 W
	// granularity. Zero disables quantization.
	Resolution units.Power
}

// DefaultConfig returns Wattsup Pro-like settings.
func DefaultConfig(name string) Config {
	return Config{Name: name, Interval: time.Second, Resolution: 0.1}
}

// Validate reports the first problem with the configuration, if any.
func (c *Config) Validate() error {
	if c.Interval <= 0 {
		return fmt.Errorf("power: %q: Interval must be positive", c.Name)
	}
	if c.Resolution < 0 {
		return fmt.Errorf("power: %q: Resolution must be non-negative", c.Name)
	}
	return nil
}

// Meter samples a power source on a fixed interval.
type Meter struct {
	cfg     Config
	engine  *sim.Engine
	source  func() units.Power
	samples []Sample
	ticker  *sim.Ticker
}

// NewMeter creates a meter reading from source. The meter is created
// stopped; call Start to begin sampling. It panics on an invalid
// configuration or nil source.
func NewMeter(e *sim.Engine, cfg Config, source func() units.Power) *Meter {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if source == nil {
		panic(fmt.Sprintf("power: %q: nil source", cfg.Name))
	}
	return &Meter{cfg: cfg, engine: e, source: source}
}

// Name returns the meter's name.
func (m *Meter) Name() string { return m.cfg.Name }

// Start begins sampling. The first sample is taken immediately, then every
// interval. Starting a running meter is a no-op.
func (m *Meter) Start() {
	if m.ticker != nil {
		return
	}
	m.sample()
	m.ticker = m.engine.Every(m.cfg.Interval, m.sample)
}

// Stop halts sampling. The trace is retained.
func (m *Meter) Stop() {
	if m.ticker == nil {
		return
	}
	m.ticker.Stop()
	m.ticker = nil
}

// Running reports whether the meter is sampling.
func (m *Meter) Running() bool { return m.ticker != nil }

func (m *Meter) sample() {
	p := m.source()
	if m.cfg.Resolution > 0 {
		p = units.Power(math.Round(float64(p/m.cfg.Resolution))) * m.cfg.Resolution
	}
	m.samples = append(m.samples, Sample{At: m.engine.Now(), Power: p})
}

// Samples returns the recorded trace.
func (m *Meter) Samples() []Sample { return m.samples }

// Reset discards the recorded trace.
func (m *Meter) Reset() { m.samples = nil }

// Energy estimates the energy observed by the meter using trapezoidal
// integration over the sample trace — the same estimate the physical
// instrument's logger produces. It returns 0 with fewer than two samples.
func (m *Meter) Energy() units.Energy {
	return IntegrateTrapezoid(m.samples)
}

// AveragePower returns the mean of the recorded samples, or 0 when empty.
func (m *Meter) AveragePower() units.Power {
	if len(m.samples) == 0 {
		return 0
	}
	var sum units.Power
	for _, s := range m.samples {
		sum += s.Power
	}
	return sum / units.Power(len(m.samples))
}

// PeakPower returns the maximum recorded sample, or 0 when empty.
func (m *Meter) PeakPower() units.Power {
	var peak units.Power
	for _, s := range m.samples {
		if s.Power > peak {
			peak = s.Power
		}
	}
	return peak
}

// IntegrateTrapezoid integrates a power trace into energy by the
// trapezoidal rule. Samples must be in non-decreasing time order; it panics
// otherwise, because a disordered trace indicates a harness bug.
func IntegrateTrapezoid(samples []Sample) units.Energy {
	var e units.Energy
	for i := 1; i < len(samples); i++ {
		dt := samples[i].At - samples[i-1].At
		if dt < 0 {
			panic("power: samples out of order")
		}
		avg := (samples[i].Power + samples[i-1].Power) / 2
		e += avg.Over(dt)
	}
	return e
}

// Sum returns a source that adds several sources — e.g. whole-system power
// as meter1 + meter2.
func Sum(sources ...func() units.Power) func() units.Power {
	return func() units.Power {
		var total units.Power
		for _, s := range sources {
			total += s()
		}
		return total
	}
}
