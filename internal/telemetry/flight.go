// The epoch flight recorder: a bounded ring buffer of structured DVFS-epoch
// controller decisions. Where the metrics registry answers "how often", the
// flight recorder answers "why": it keeps the last K decisions — measured
// utilizations, the levels the scaler chose, the division ratio in force,
// an instantaneous power sample, and run-cache effectiveness — so a bad
// frequency decision can be debugged after the fact without re-running
// anything. docs/OBSERVABILITY.md documents the record format and a worked
// debugging walkthrough.

package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"greengpu/internal/trace"
)

// EpochRecord is one tier-2 (DVFS) epoch as the controller saw it.
type EpochRecord struct {
	// Seq is the global record sequence number, stamped by Record.
	// Concurrent runs interleave in the ring; Seq plus Workload
	// disambiguates.
	Seq uint64 `json:"seq"`
	// Workload and Mode identify the run the epoch belongs to.
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	// Epoch is the DVFS step index within the run (0-based).
	Epoch int `json:"epoch"`
	// At is the simulated time of the decision.
	At time.Duration `json:"at_ns"`
	// UCore and UMem are the utilizations fed to the scaler (after any
	// injected sensor fault and the hold-last-good guard).
	UCore float64 `json:"u_core"`
	UMem  float64 `json:"u_mem"`
	// CoreLevel/MemLevel are the enforced levels (after any actuator
	// filter); CoreMHz/MemMHz are the corresponding frequencies.
	CoreLevel int     `json:"core_level"`
	MemLevel  int     `json:"mem_level"`
	CoreMHz   float64 `json:"core_mhz"`
	MemMHz    float64 `json:"mem_mhz"`
	// CPULevel is the processor P-state in force at the epoch.
	CPULevel int `json:"cpu_level"`
	// Ratio is tier 1's CPU share in force at the epoch.
	Ratio float64 `json:"ratio"`
	// PowerW is the instantaneous whole-system power sample in watts.
	PowerW float64 `json:"power_w"`
	// CacheHits and CacheMisses are the process-wide run-cache counters
	// at record time, stamped by Record.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Faults is the run's cumulative injected-fault count at epoch end
	// (0 when no fault plan is armed — see internal/faultinject).
	Faults uint64 `json:"faults,omitempty"`
	// Held marks an epoch whose utilization sample was replaced by the
	// guard's hold-last-good.
	Held bool `json:"held,omitempty"`
	// Failsafe marks an epoch spent pinned at the watchdog's failsafe
	// (peak) levels after consecutive transition failures.
	Failsafe bool `json:"failsafe,omitempty"`
	// Predicted marks a record whose levels came from the analytic
	// cross-frequency model (internal/predict) without simulation
	// verification. Records from full simulation — including predictor
	// candidates that were verified by simulation — leave it false.
	Predicted bool `json:"predicted,omitempty"`
}

// jsonFloat marshals non-finite values as null — JSON has no NaN/Inf, and a
// power sample dropped by a meter fault must not make the whole snapshot
// unencodable.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// MarshalJSON implements json.Marshaler. Float fields that can carry a
// faulted (non-finite) sample encode as null rather than failing the
// marshal.
func (e EpochRecord) MarshalJSON() ([]byte, error) {
	type rec struct {
		Seq         uint64        `json:"seq"`
		Workload    string        `json:"workload"`
		Mode        string        `json:"mode"`
		Epoch       int           `json:"epoch"`
		At          time.Duration `json:"at_ns"`
		UCore       jsonFloat     `json:"u_core"`
		UMem        jsonFloat     `json:"u_mem"`
		CoreLevel   int           `json:"core_level"`
		MemLevel    int           `json:"mem_level"`
		CoreMHz     jsonFloat     `json:"core_mhz"`
		MemMHz      jsonFloat     `json:"mem_mhz"`
		CPULevel    int           `json:"cpu_level"`
		Ratio       jsonFloat     `json:"ratio"`
		PowerW      jsonFloat     `json:"power_w"`
		CacheHits   uint64        `json:"cache_hits"`
		CacheMisses uint64        `json:"cache_misses"`
		Faults      uint64        `json:"faults,omitempty"`
		Held        bool          `json:"held,omitempty"`
		Failsafe    bool          `json:"failsafe,omitempty"`
		Predicted   bool          `json:"predicted,omitempty"`
	}
	return json.Marshal(rec{
		Seq:         e.Seq,
		Workload:    e.Workload,
		Mode:        e.Mode,
		Epoch:       e.Epoch,
		At:          e.At,
		UCore:       jsonFloat(e.UCore),
		UMem:        jsonFloat(e.UMem),
		CoreLevel:   e.CoreLevel,
		MemLevel:    e.MemLevel,
		CoreMHz:     jsonFloat(e.CoreMHz),
		MemMHz:      jsonFloat(e.MemMHz),
		CPULevel:    e.CPULevel,
		Ratio:       jsonFloat(e.Ratio),
		PowerW:      jsonFloat(e.PowerW),
		CacheHits:   e.CacheHits,
		CacheMisses: e.CacheMisses,
		Faults:      e.Faults,
		Held:        e.Held,
		Failsafe:    e.Failsafe,
		Predicted:   e.Predicted,
	})
}

// FlightRecorder retains the last K epoch records in a preallocated ring
// buffer. Record is safe for concurrent use and never allocates, so leaving
// a recorder installed costs one mutex acquisition per DVFS epoch —
// thousands of simulated seconds apart, nothing on any hot path.
type FlightRecorder struct {
	mu    sync.Mutex
	seq   uint64
	buf   []EpochRecord
	next  int // ring write position
	count int // records written, saturating at len(buf)
}

// NewFlightRecorder returns a recorder retaining the last k records.
// It panics if k is not positive.
func NewFlightRecorder(k int) *FlightRecorder {
	if k <= 0 {
		panic("telemetry: NewFlightRecorder needs k > 0")
	}
	return &FlightRecorder{buf: make([]EpochRecord, k)}
}

// Cap returns the retention bound K.
func (r *FlightRecorder) Cap() int { return len(r.buf) }

// Len returns the number of records currently retained (<= Cap).
func (r *FlightRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Record stores one epoch, evicting the oldest when the ring is full. It
// stamps rec.Seq, rec.CacheHits and rec.CacheMisses itself (the run-cache
// counters are process-global, so the caller need not know them).
func (r *FlightRecorder) Record(rec EpochRecord) {
	rec.CacheHits = Default.CounterValue(MetricRunCacheHits)
	rec.CacheMisses = Default.CounterValue(MetricRunCacheMisses)
	r.mu.Lock()
	rec.Seq = r.seq
	r.seq++
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	if r.count < len(r.buf) {
		r.count++
	}
	r.mu.Unlock()
}

// Snapshot returns the retained records, oldest first.
func (r *FlightRecorder) Snapshot() []EpochRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]EpochRecord, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Table renders the newest records (at most lastK; lastK <= 0 means all
// retained) as an aligned trace table, oldest first — the "what was the
// controller thinking" view dumped when a run ends in an anomaly.
func (r *FlightRecorder) Table(lastK int) *trace.Table {
	recs := r.Snapshot()
	if lastK > 0 && len(recs) > lastK {
		recs = recs[len(recs)-lastK:]
	}
	t := trace.NewTable(
		fmt.Sprintf("flight recorder: last %d DVFS epochs (oldest first)", len(recs)),
		"seq", "workload", "mode", "epoch", "t(s)", "u_core", "u_mem",
		"core", "MHz", "mem", "MHz", "cpu", "r", "power(W)", "hits", "misses",
		"faults", "flags")
	for _, e := range recs {
		flags := ""
		if e.Held {
			flags += "H"
		}
		if e.Failsafe {
			flags += "F"
		}
		if e.Predicted {
			flags += "P"
		}
		if flags == "" {
			flags = "-"
		}
		t.AddRow(
			fmt.Sprintf("%d", e.Seq),
			e.Workload,
			e.Mode,
			fmt.Sprintf("%d", e.Epoch),
			fmt.Sprintf("%.1f", e.At.Seconds()),
			fmt.Sprintf("%.3f", e.UCore),
			fmt.Sprintf("%.3f", e.UMem),
			fmt.Sprintf("%d", e.CoreLevel),
			fmt.Sprintf("%.0f", e.CoreMHz),
			fmt.Sprintf("%d", e.MemLevel),
			fmt.Sprintf("%.0f", e.MemMHz),
			fmt.Sprintf("%d", e.CPULevel),
			fmt.Sprintf("%.2f", e.Ratio),
			fmt.Sprintf("%.1f", e.PowerW),
			fmt.Sprintf("%d", e.CacheHits),
			fmt.Sprintf("%d", e.CacheMisses),
			fmt.Sprintf("%d", e.Faults),
			flags,
		)
	}
	return t
}

// WriteJSON renders the retained records (oldest first) as indented JSON.
func (r *FlightRecorder) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// active is the installed process-wide recorder, nil when flight recording
// is off. A plain atomic pointer so the per-epoch check in internal/core is
// one load and a nil test.
var active atomic.Pointer[FlightRecorder]

// SetFlightRecorder installs r as the process-wide recorder (nil
// uninstalls).
func SetFlightRecorder(r *FlightRecorder) { active.Store(r) }

// Recorder returns the installed process-wide recorder, or nil. Callers
// nil-check and skip record assembly entirely when flight recording is off.
func Recorder() *FlightRecorder { return active.Load() }
