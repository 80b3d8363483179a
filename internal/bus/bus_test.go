package bus

import (
	"testing"
	"testing/quick"
	"time"

	"greengpu/internal/sim"
	"greengpu/internal/units"
)

func testConfig() Config {
	return Config{
		Name:      "pcie",
		Bandwidth: units.Bandwidth(1e9), // 1 GB/s
		Latency:   10 * time.Millisecond,
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := testConfig()
	bad.Bandwidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
	bad = testConfig()
	bad.Latency = -time.Second
	if err := bad.Validate(); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestTransferTime(t *testing.T) {
	b := New(sim.New(), testConfig())
	// 10ms latency + 1e9 bytes / 1 GB/s = 1.01s.
	got := b.TransferTime(1e9)
	want := 1010 * time.Millisecond
	if d := got - want; d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("TransferTime = %v, want %v", got, want)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	b := New(sim.New(), testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.TransferTime(-1)
}

func TestTransferCompletion(t *testing.T) {
	e := sim.New()
	b := New(e, testConfig())
	var doneAt time.Duration
	b.Transfer(1e9, func() { doneAt = e.Now() })
	e.Run()
	want := 1010 * time.Millisecond
	if doneAt != want {
		t.Errorf("completion at %v, want %v", doneAt, want)
	}
}

func TestFIFOSerialization(t *testing.T) {
	e := sim.New()
	b := New(e, testConfig())
	var order []string
	b.Transfer(1e9, func() { order = append(order, "first") })    // ends 1.01s
	b.Transfer(0.5e9, func() { order = append(order, "second") }) // ends 1.01+0.51
	if !b.Busy() {
		t.Error("bus should be busy")
	}
	e.Run()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v", order)
	}
	if want := 1520 * time.Millisecond; e.Now() != want {
		t.Errorf("all done at %v, want %v", e.Now(), want)
	}
	if b.Busy() {
		t.Error("bus should be idle")
	}
}

func TestCounters(t *testing.T) {
	e := sim.New()
	b := New(e, testConfig())
	b.Transfer(1e9, nil)
	b.Transfer(2e9, nil)
	e.Run()
	c := b.Counters()
	if c.Transfers != 2 {
		t.Errorf("Transfers = %d, want 2", c.Transfers)
	}
	if c.Bytes != 3e9 {
		t.Errorf("Bytes = %v, want 3e9", float64(c.Bytes))
	}
	wantBusy := 3020 * time.Millisecond
	if d := c.BusyTime - wantBusy; d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("BusyTime = %v, want %v", c.BusyTime, wantBusy)
	}
}

func TestNilCallback(t *testing.T) {
	e := sim.New()
	b := New(e, testConfig())
	b.Transfer(100, nil)
	e.Run() // must not panic
}

func TestZeroByteTransferStillPaysLatency(t *testing.T) {
	e := sim.New()
	b := New(e, testConfig())
	var doneAt time.Duration
	b.Transfer(0, func() { doneAt = e.Now() })
	e.Run()
	if doneAt != 10*time.Millisecond {
		t.Errorf("zero-byte transfer done at %v, want 10ms", doneAt)
	}
}

// Property: completion time of back-to-back transfers equals the sum of
// their individual service times, regardless of issue pattern.
func TestSerializationProperty(t *testing.T) {
	f := func(sizesKB []uint16) bool {
		e := sim.New()
		b := New(e, testConfig())
		var total time.Duration
		for i, kb := range sizesKB {
			n := units.Bytes(kb) * 1024
			total += b.TransferTime(n)
			b.Transfer(n, nil)
			_ = i
		}
		e.Run()
		diff := e.Now() - total
		if diff < 0 {
			diff = -diff
		}
		return len(sizesKB) == 0 || diff <= time.Duration(len(sizesKB))*time.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
