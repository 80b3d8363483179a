package runcache

import (
	"container/list"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"greengpu/internal/core"
	"greengpu/internal/division"
	"greengpu/internal/iofault"
	"greengpu/internal/predict"
	"greengpu/internal/telemetry"
)

// Package metrics (see docs/OBSERVABILITY.md). They mirror the per-Cache
// Stats counters process-wide: Stats stays the exact per-instance view the
// stderr summary prints, the metrics aggregate across every cache in the
// process and feed the flight recorder's hit/miss stamps. No-ops unless
// telemetry is enabled.
var (
	metricHits = telemetry.NewCounter(telemetry.MetricRunCacheHits,
		"Simulation points served from the in-memory cache.")
	metricDiskHits = telemetry.NewCounter("greengpu_runcache_disk_hits_total",
		"Simulation points loaded from the disk layer.")
	metricMisses = telemetry.NewCounter(telemetry.MetricRunCacheMisses,
		"Simulation points actually simulated (cache misses).")
	metricWaits = telemetry.NewCounter("greengpu_runcache_single_flight_waits_total",
		"Workers that blocked on another worker's in-flight computation of the same point.")
	metricEntries = telemetry.NewGauge("greengpu_runcache_entries",
		"Completed entries currently held in memory (last cache to finish an entry wins).")
	metricCorrupt = telemetry.NewCounter("greengpu_runcache_corrupt_total",
		"Corrupt, truncated or wrong-schema disk entries quarantined and recomputed.")
	metricDiskEvictions = telemetry.NewCounter("greengpu_runcache_disk_evictions_total",
		"Disk entries removed to keep the gob layer under MaxDiskBytes.")
)

// Value is what the cache stores per simulation point: the framework result
// plus any machine-level observations the point's flavour captured.
type Value struct {
	Result *core.Result
	// GPUPower is the per-sample GPU card power trace in watts, recorded
	// when the run flavour had meter 2 attached (KeyOf variant
	// distinguishes metered from plain runs). Nil for plain runs.
	GPUPower []float64
	// Predict is the memoized outcome of an analytic sweet-spot search
	// (internal/predict) over a whole ladder, stored under a "predict:"
	// KeyOf variant. Nil for per-point entries. The search's anchor and
	// verification evaluations flow through the ordinary per-point cache,
	// so a warm Predict entry replays the same outcome the cold search
	// computed — including its deterministic FullEvals request count.
	Predict *predict.Outcome
}

// clone deep-copies the value. Cached results are immutable by contract:
// every Do returns a private copy, so no caller can corrupt an entry other
// callers (or a warm disk cache) will observe. TestResultImmutability pins
// this; keep it in sync with the fields of core.Result.
func (v Value) clone() Value {
	out := Value{GPUPower: append([]float64(nil), v.GPUPower...)}
	if v.Result != nil {
		r := *v.Result
		r.Iterations = append([]core.IterationStats(nil), v.Result.Iterations...)
		r.DivisionHistory = append([]division.Observation(nil), v.Result.DivisionHistory...)
		out.Result = &r
	}
	if v.Predict != nil {
		p := *v.Predict
		out.Predict = &p
	}
	return out
}

// Stats is a snapshot of cache effectiveness counters.
type Stats struct {
	// Hits served from the in-memory map; DiskHits additionally counts
	// entries loaded from the disk layer (a disk hit is not a Hit: the
	// point was not in memory).
	Hits     uint64 `json:"hits"`
	DiskHits uint64 `json:"disk_hits"`
	// Misses are points actually simulated.
	Misses uint64 `json:"misses"`
	// Waits counts single-flight blocks: a worker (or a concurrent daemon
	// client) needed a point another was already computing and waited for
	// it instead of duplicating the run.
	Waits uint64 `json:"waits"`
	// Corrupt counts disk entries that failed to decode and were
	// quarantined (renamed to .bad) so the point recomputed cleanly.
	Corrupt uint64 `json:"corrupt"`
	// Entries is the current in-memory entry count.
	Entries int `json:"entries"`
}

// Sub returns the counter deltas accumulated since an earlier snapshot of
// the same cache. Entries, a level not a counter, carries the receiver's
// current value unchanged.
func (s Stats) Sub(earlier Stats) Stats {
	return Stats{
		Hits:     s.Hits - earlier.Hits,
		DiskHits: s.DiskHits - earlier.DiskHits,
		Misses:   s.Misses - earlier.Misses,
		Waits:    s.Waits - earlier.Waits,
		Corrupt:  s.Corrupt - earlier.Corrupt,
		Entries:  s.Entries,
	}
}

// String renders the counters for the cmd/experiments stderr summary. The
// corruption count only appears when non-zero — it should be alarming, not
// ambient.
func (s Stats) String() string {
	out := fmt.Sprintf("run cache: %d hits (%d from disk), %d misses, %d single-flight waits, %d entries",
		s.Hits, s.DiskHits, s.Misses, s.Waits, s.Entries)
	if s.Corrupt > 0 {
		out += fmt.Sprintf(", %d corrupt entries quarantined", s.Corrupt)
	}
	return out
}

// Options configures a Cache.
type Options struct {
	// Dir, when non-empty, enables the on-disk layer: completed entries
	// are gob-encoded under Dir/v<SchemaVersion>/ and re-runs of the
	// same binary pick them up across processes. Entries written by
	// other schema versions live in sibling directories and are never
	// consulted.
	Dir string
	// MaxDiskBytes bounds the on-disk gob layer's total size in bytes; 0
	// means unbounded. After each store, oldest entries (by modification
	// time) are removed until the layer fits the budget again — the
	// freshest points survive, the stalest recompute.
	MaxDiskBytes int64
	// FS overrides the filesystem under the disk layer; nil selects the
	// real disk. Fault-injection tests thread an iofault.FaultFS here to
	// prove the quarantine-and-recompute path holds under ENOSPC, short
	// writes, fsync failures, read corruption and rename failures. (The
	// cross-process advisory locks stay on the real OS: they are a
	// liveness optimization, not a correctness seam.)
	FS iofault.FS
}

// maxMemRecords bounds the iteration records the in-memory layer's
// completed entries hold, at 208 bytes each: four requests at
// sweep.MaxRecords, about 208 MiB. An entry weighs max(1, its iteration
// count), and the least-recently-used completed entries are evicted once
// the total exceeds the budget (the disk layer, if any, still holds them).
// The whole evaluation suite holds about 27k records, so it never evicts.
const maxMemRecords = 1 << 20

// Cache memoizes simulation points by fingerprint. It is safe for
// concurrent use by any number of goroutines.
type Cache struct {
	dir     string // versioned disk root, "" when disabled
	fsys    iofault.FS
	maxDisk int64
	// maxRecords is maxMemRecords; tests lower it to exercise eviction.
	maxRecords int

	// diskMu serializes this process's eviction sweeps; cross-process
	// races are benign (a missing victim is skipped).
	diskMu sync.Mutex

	mu      sync.Mutex
	entries map[Key]*entry
	lru     *list.List // front = most recently used; holds *entry
	records int        // total weight of the completed entries

	hits     atomic.Uint64
	diskHits atomic.Uint64
	misses   atomic.Uint64
	waits    atomic.Uint64
	corrupt  atomic.Uint64
}

// entry is one key's slot. done is closed exactly once, when val/err are
// final; waiters block on it (single-flight).
type entry struct {
	key    Key
	done   chan struct{}
	elem   *list.Element
	val    Value
	err    error
	weight int // iteration records held once completed; see maxMemRecords
}

// New creates a cache. With Options.Dir set, the version-stamped directory
// is created eagerly so configuration errors surface at startup, not on
// the first store.
func New(o Options) (*Cache, error) {
	if o.MaxDiskBytes < 0 {
		return nil, fmt.Errorf("runcache: MaxDiskBytes must be non-negative")
	}
	c := &Cache{
		fsys:       o.FS,
		maxDisk:    o.MaxDiskBytes,
		maxRecords: maxMemRecords,
		entries:    make(map[Key]*entry),
		lru:        list.New(),
	}
	if c.fsys == nil {
		c.fsys = iofault.Disk
	}
	if o.Dir != "" {
		c.dir = filepath.Join(o.Dir, fmt.Sprintf("v%d", SchemaVersion))
		if err := c.fsys.MkdirAll(c.dir, 0o755); err != nil {
			return nil, fmt.Errorf("runcache: %w", err)
		}
	}
	return c, nil
}

// Stats returns a snapshot of the effectiveness counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return Stats{
		Hits:     c.hits.Load(),
		DiskHits: c.diskHits.Load(),
		Misses:   c.misses.Load(),
		Waits:    c.waits.Load(),
		Corrupt:  c.corrupt.Load(),
		Entries:  n,
	}
}

// Do returns the value for key, computing it at most once per process no
// matter how many goroutines ask concurrently: the first caller runs
// compute (after consulting the disk layer) while the rest block until it
// finishes. The returned Value is a private deep copy — callers own it and
// may mutate it freely.
//
// compute errors are returned to the leader and every waiter, but are not
// cached: the next Do for the key retries.
func (c *Cache) Do(key Key, compute func() (Value, error)) (Value, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.done:
			// Completed entry: a pure in-memory hit.
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			c.hits.Add(1)
			metricHits.Inc()
			return e.val.clone(), e.err
		default:
			// In flight: wait for the leader.
			c.mu.Unlock()
			c.waits.Add(1)
			metricWaits.Inc()
			<-e.done
			return e.val.clone(), e.err
		}
	}
	e := &entry{key: key, done: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.mu.Unlock()

	// Leader path. A compute panic must not strand waiters on a never-
	// closed channel: record it as the outcome, then re-panic.
	completed := false
	defer func() {
		if !completed {
			c.finish(e, Value{}, fmt.Errorf("runcache: compute panicked"), false)
		}
	}()

	if v, ok := c.load(key); ok {
		c.diskHits.Add(1)
		c.hits.Add(1)
		metricDiskHits.Inc()
		metricHits.Inc()
		completed = true
		c.finish(e, v, nil, true)
		return v.clone(), nil
	}

	// Cross-process single flight: with a disk layer, hold the key's
	// advisory file lock over compute+store so concurrent processes
	// sharing the directory simulate the point once. Best effort — if the
	// platform or filesystem can't lock, compute anyway (the atomic store
	// keeps correctness; only the work is duplicated).
	if c.dir != "" {
		if unlock, lerr := flockPath(c.path(key) + ".lock"); lerr == nil {
			defer unlock()
			// Double-checked load: another process may have finished the
			// point while this one waited on its lock.
			if v, ok := c.load(key); ok {
				c.diskHits.Add(1)
				c.hits.Add(1)
				metricDiskHits.Inc()
				metricHits.Inc()
				completed = true
				c.finish(e, v, nil, true)
				return v.clone(), nil
			}
		}
	}

	v, err := compute()
	c.misses.Add(1)
	metricMisses.Inc()
	completed = true
	c.finish(e, v, err, err == nil)
	if err != nil {
		return Value{}, err
	}
	if c.dir != "" {
		c.store(key, v) // best effort; the run already succeeded
	}
	return v.clone(), nil
}

// finish publishes the entry's outcome. Failed computations are removed so
// later calls retry; successful ones stay and may trigger LRU eviction.
func (c *Cache) finish(e *entry, v Value, err error, keep bool) {
	e.val, e.err = v, err
	c.mu.Lock()
	if !keep {
		delete(c.entries, e.key)
		c.lru.Remove(e.elem)
	} else {
		e.weight = 1
		if v.Result != nil {
			e.weight = max(1, len(v.Result.Iterations))
		}
		c.records += e.weight
		for c.records > c.maxRecords {
			victim := c.oldestCompleted(e)
			if victim == nil {
				break
			}
			delete(c.entries, victim.key)
			c.lru.Remove(victim.elem)
			c.records -= victim.weight
		}
	}
	metricEntries.Set(float64(len(c.entries)))
	c.mu.Unlock()
	close(e.done)
}

// oldestCompleted returns the least-recently-used evictable entry: completed
// (waiters hold in-flight entries' channels) and not the one being
// finished. Called with c.mu held.
func (c *Cache) oldestCompleted(finishing *entry) *entry {
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		if e == finishing {
			continue
		}
		select {
		case <-e.done:
			return e
		default:
		}
	}
	return nil
}

// path maps a key to its disk file.
func (c *Cache) path(key Key) string {
	return filepath.Join(c.dir, hex.EncodeToString(key[:])+".gob")
}

// load reads one entry from the disk layer. Undecodable files — truncated
// writes from a killed process, bit rot, a foreign gob schema — are
// treated as misses and quarantined so the point recomputes cleanly: the
// run must survive a corrupt cache, and the evidence must survive the run.
func (c *Cache) load(key Key) (Value, bool) {
	if c.dir == "" {
		return Value{}, false
	}
	f, err := c.fsys.Open(c.path(key))
	if err != nil {
		return Value{}, false
	}
	defer f.Close()
	var v Value
	if err := gob.NewDecoder(f).Decode(&v); err != nil {
		c.quarantine(key)
		return Value{}, false
	}
	return v, true
}

// quarantine moves a corrupt disk entry aside (renamed to <key>.gob.bad,
// replacing any previous quarantine of the same key) so it is never
// consulted again but stays available for a postmortem. If the rename
// fails the file is removed outright — recovery must not depend on it.
func (c *Cache) quarantine(key Key) {
	c.corrupt.Add(1)
	metricCorrupt.Inc()
	p := c.path(key)
	if err := c.fsys.Rename(p, p+".bad"); err != nil {
		c.fsys.Remove(p)
	}
}

// store writes one entry to the disk layer atomically (temp file + fsync
// + rename), so concurrent processes and crashes can never expose a
// half-written entry under the final name. Every step is best effort — a
// failed store just means a recompute later — but a failure at any step
// removes the temp file: injected fault sweeps assert the layer never
// accumulates partial entries.
func (c *Cache) store(key Key, v Value) {
	f, err := c.fsys.CreateTemp(c.dir, "tmp-*.gob")
	if err != nil {
		return
	}
	tmp := f.Name()
	if err := gob.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		c.fsys.Remove(tmp)
		return
	}
	// Sync before the rename: otherwise a power cut can leave the final
	// name pointing at a file whose blocks never landed — exactly the
	// quarantine churn the journal-equipped daemon must not self-inflict.
	if err := f.Sync(); err != nil {
		f.Close()
		c.fsys.Remove(tmp)
		return
	}
	if err := f.Close(); err != nil {
		c.fsys.Remove(tmp)
		return
	}
	if err := c.fsys.Rename(tmp, c.path(key)); err != nil {
		c.fsys.Remove(tmp)
		return
	}
	if c.maxDisk > 0 {
		c.enforceDiskCap(c.path(key))
	}
}

// enforceDiskCap shrinks the gob layer back under MaxDiskBytes, removing
// entries oldest-modification-first. The just-written file (keep) is
// spared unless it alone exceeds the whole budget, in which case it is
// removed too — a cap must bound the directory, not merely trim it.
func (c *Cache) enforceDiskCap(keep string) {
	c.diskMu.Lock()
	defer c.diskMu.Unlock()
	ents, err := c.fsys.ReadDir(c.dir)
	if err != nil {
		return
	}
	type file struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []file
	var total int64
	for _, de := range ents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".gob") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with another process's eviction
		}
		f := file{filepath.Join(c.dir, de.Name()), info.Size(), info.ModTime()}
		files = append(files, f)
		total += f.size
	}
	if total <= c.maxDisk {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for _, f := range files {
		if total <= c.maxDisk {
			return
		}
		if f.path == keep {
			continue
		}
		if c.fsys.Remove(f.path) == nil {
			metricDiskEvictions.Inc()
			total -= f.size
		}
	}
	if total > c.maxDisk {
		if c.fsys.Remove(keep) == nil {
			metricDiskEvictions.Inc()
		}
	}
}
