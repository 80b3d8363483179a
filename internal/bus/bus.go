// Package bus models the host↔device interconnect (PCIe-class) of the
// GreenGPU testbed platform: a serialized, fixed-bandwidth channel with a
// per-transfer setup latency.
//
// Workload division pays a bus cost per iteration (copying each side's data
// share in and results out), which is one of the overheads that makes
// too-frequent division and division-ratio oscillation expensive — the
// motivation for the paper's oscillation safeguard (§V-B).
package bus

import (
	"fmt"
	"time"

	"greengpu/internal/sim"
	"greengpu/internal/units"
)

// Config describes the interconnect.
type Config struct {
	Name      string
	Bandwidth units.Bandwidth // sustained transfer rate
	Latency   time.Duration   // per-transfer setup cost (DMA programming, sync)
}

// Validate reports the first problem with the configuration, if any.
func (c *Config) Validate() error {
	if c.Bandwidth <= 0 {
		return fmt.Errorf("bus: %q: Bandwidth must be positive", c.Name)
	}
	if c.Latency < 0 {
		return fmt.Errorf("bus: %q: Latency must be non-negative", c.Name)
	}
	return nil
}

// Counters is a snapshot of cumulative bus accounting.
type Counters struct {
	At        time.Duration
	Bytes     units.Bytes
	BusyTime  time.Duration
	Transfers int
}

// Bus is a serialized transfer channel attached to a sim.Engine.
type Bus struct {
	cfg    Config
	engine *sim.Engine

	busyUntil time.Duration

	bytes     units.Bytes
	busyTime  time.Duration
	transfers int
}

// New creates a Bus bound to the engine. It panics on an invalid
// configuration; use Config.Validate to check first.
func New(e *sim.Engine, cfg Config) *Bus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Bus{cfg: cfg, engine: e}
}

// Config returns the bus configuration.
func (b *Bus) Config() Config { return b.cfg }

// TransferTime returns the service time for a transfer of n bytes,
// excluding any queueing delay.
func (b *Bus) TransferTime(n units.Bytes) time.Duration {
	if n < 0 {
		panic(fmt.Sprintf("bus: negative transfer size %v", float64(n)))
	}
	return b.cfg.Latency + b.cfg.Bandwidth.TransferTime(n)
}

// Transfer enqueues a transfer of n bytes and invokes onDone when it
// completes. Transfers are serialized FIFO: a transfer issued while the bus
// is busy starts when the channel frees up. It returns the completion time,
// which saturates at sim.MaxTime like every other simulation instant.
func (b *Bus) Transfer(n units.Bytes, onDone func()) time.Duration {
	service := b.TransferTime(n)
	start := b.engine.Now()
	if b.busyUntil > start {
		start = b.busyUntil
	}
	end := sim.AddTime(start, service)
	b.busyUntil = end
	b.bytes += n
	b.busyTime += service
	b.transfers++
	if onDone == nil {
		onDone = nop
	}
	b.engine.Schedule(end, onDone)
	return end
}

func nop() {}

// Busy reports whether the bus has unfinished transfers.
func (b *Bus) Busy() bool { return b.busyUntil > b.engine.Now() }

// Counters returns a snapshot of cumulative accounting.
func (b *Bus) Counters() Counters {
	return Counters{
		At:        b.engine.Now(),
		Bytes:     b.bytes,
		BusyTime:  b.busyTime,
		Transfers: b.transfers,
	}
}
