// Package iofault is an injectable filesystem seam with a deterministic
// storage-fault engine for the infrastructure layer.
//
// internal/faultinject hardened the *simulation* layer — sensors,
// transitions, meters — while the *infrastructure* layer (the run cache's
// gob disk files, the daemon's job journal) trusted the filesystem
// completely. Real storage misbehaves in well-catalogued ways: writes hit
// ENOSPC, land short, or succeed while the following fsync fails; reads
// return rotted bytes; renames fail on the far side of a directory quota.
// This package lets those failures be injected deterministically under any
// component that takes an FS instead of calling package os directly.
//
// # Determinism
//
// Fault decisions follow the internal/faultinject plan style: every class
// owns a channel with its own salted seed, derived statelessly from the
// plan's base seed with parallel.TaskSeed, and consecutive decisions on a
// channel consume consecutive parallel.Uniform draws. A Plan is plain data;
// a nil or zero plan makes Wrap return the wrapped FS itself, so healthy
// paths are bit- and allocation-identical to code that never saw this
// package. Unlike faultinject's per-machine injectors, a FaultFS may be
// shared by concurrent goroutines (the run cache is), so its channels are
// mutex-guarded; under concurrency the schedule is deterministic per call
// sequence, not per caller.
package iofault

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"sync"

	"greengpu/internal/parallel"
	"greengpu/internal/telemetry"
)

// Package metrics (see docs/OBSERVABILITY.md "Infrastructure faults").
// No-ops unless telemetry is enabled.
var (
	metricWriteErrors = telemetry.NewCounter("greengpu_iofault_write_errors_total",
		"Injected whole-write failures (ENOSPC with nothing written).")
	metricShortWrites = telemetry.NewCounter("greengpu_iofault_short_writes_total",
		"Injected short writes (a prefix lands, then ENOSPC).")
	metricSyncErrors = telemetry.NewCounter("greengpu_iofault_sync_errors_total",
		"Injected fsync failures (data durability unknown to the caller).")
	metricReadCorruptions = telemetry.NewCounter("greengpu_iofault_read_corruptions_total",
		"Injected read corruptions (one bit flipped in the returned buffer).")
	metricRenameErrors = telemetry.NewCounter("greengpu_iofault_rename_errors_total",
		"Injected rename failures (the old path stays in place).")
)

// Injected error sentinels. They are distinct values rather than syscall
// errnos so tests and callers can errors.Is against them portably.
var (
	// ErrNoSpace is the injected analogue of ENOSPC: the device is full and
	// the write (or its tail) never landed.
	ErrNoSpace = errors.New("iofault: no space left on device (injected)")
	// ErrIO is the injected analogue of EIO: the operation failed for a
	// reason the caller cannot distinguish from media failure.
	ErrIO = errors.New("iofault: input/output error (injected)")
)

// File is the slice of *os.File the infrastructure layer needs: stream
// reads and writes, durability (Sync), identity (Name) and Close.
type File interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Name() string
}

// FS is the filesystem seam. Disk is the real implementation; FaultFS
// wraps any FS with an injected fault plan. The method set is exactly what
// internal/runcache's disk layer and internal/jobstore's journal use.
type FS interface {
	// MkdirAll creates a directory path like os.MkdirAll.
	MkdirAll(path string, perm fs.FileMode) error
	// Open opens a file for reading like os.Open.
	Open(name string) (File, error)
	// OpenFile is the generalized open like os.OpenFile.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp creates a unique temporary file like os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath like os.Rename.
	Rename(oldpath, newpath string) error
	// Remove deletes a file like os.Remove.
	Remove(name string) error
	// Truncate resizes a file like os.Truncate.
	Truncate(name string, size int64) error
	// ReadDir lists a directory like os.ReadDir.
	ReadDir(name string) ([]fs.DirEntry, error)
}

// Disk is the real filesystem: every method delegates to package os.
var Disk FS = osFS{}

// osFS implements FS over package os.
type osFS struct{}

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Open(name string) (File, error)               { return os.Open(name) }
func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }

// Plan parameterizes every storage-fault class. It is plain data in the
// faultinject.Plan style: the zero value injects nothing and all randomness
// derives from Seed. Rates are per-opportunity probabilities in [0,1] (per
// Write call, per Sync call, per Read call, per Rename call).
type Plan struct {
	// Seed is the base seed every per-class channel seed derives from.
	Seed uint64

	// WriteErrRate fails a Write outright: nothing lands and the call
	// returns ErrNoSpace, modelling a full device.
	WriteErrRate float64
	// ShortWriteRate lands only the first half of a Write's bytes before
	// returning ErrNoSpace — the torn-write case journals must survive.
	ShortWriteRate float64
	// SyncErrRate fails a Sync with ErrIO after the data may or may not
	// have reached the platter — the caller must treat the file's durable
	// contents as unknown.
	SyncErrRate float64
	// ReadCorruptRate flips one bit of a Read's returned buffer, modelling
	// bit rot the checksum layer has to catch.
	ReadCorruptRate float64
	// RenameErrRate fails a Rename with ErrIO, leaving the old path in
	// place.
	RenameErrRate float64
}

// Default returns the moderate all-classes plan the storage-fault tests
// run under.
func Default(seed uint64) Plan {
	return Plan{
		Seed:            seed,
		WriteErrRate:    0.05,
		ShortWriteRate:  0.05,
		SyncErrRate:     0.05,
		ReadCorruptRate: 0.05,
		RenameErrRate:   0.05,
	}
}

// Validate reports the first problem with the plan, if any.
func (p *Plan) Validate() error {
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"WriteErrRate", p.WriteErrRate},
		{"ShortWriteRate", p.ShortWriteRate},
		{"SyncErrRate", p.SyncErrRate},
		{"ReadCorruptRate", p.ReadCorruptRate},
		{"RenameErrRate", p.RenameErrRate},
	} {
		if math.IsNaN(c.v) || c.v < 0 || c.v > 1 {
			return fmt.Errorf("iofault: %s = %v, must be in [0,1]", c.name, c.v)
		}
	}
	return nil
}

// Zero reports whether the plan injects nothing: every rate is exactly
// zero. Wrap returns the wrapped FS unchanged for a zero plan.
func (p *Plan) Zero() bool {
	return p.WriteErrRate == 0 && p.ShortWriteRate == 0 && p.SyncErrRate == 0 &&
		p.ReadCorruptRate == 0 && p.RenameErrRate == 0
}

// Counts tallies injected storage faults by class.
type Counts struct {
	// WriteErrors is whole-write failures (nothing landed).
	WriteErrors uint64
	// ShortWrites is writes that landed a prefix then failed.
	ShortWrites uint64
	// SyncErrors is failed fsyncs.
	SyncErrors uint64
	// ReadCorruptions is reads with a flipped bit.
	ReadCorruptions uint64
	// RenameErrors is failed renames.
	RenameErrors uint64
}

// Total returns the number of injected faults across all classes.
func (c Counts) Total() uint64 {
	return c.WriteErrors + c.ShortWrites + c.SyncErrors + c.ReadCorruptions + c.RenameErrors
}

// Channel salts, frozen like faultinject's: changing one changes every
// injected sequence.
const (
	saltWrite   uint64 = 0x10fa0001
	saltShort   uint64 = 0x10fa0002
	saltSync    uint64 = 0x10fa0003
	saltRead    uint64 = 0x10fa0004
	saltRename  uint64 = 0x10fa0005
	saltBitFlip uint64 = 0x10fa0006
)

// FaultFS wraps an FS with an injected fault plan. Unlike the simulation
// injectors it is safe for concurrent use: the run cache serves many
// goroutines through one FS, so every draw and count is mutex-guarded.
type FaultFS struct {
	inner FS
	plan  Plan

	mu      sync.Mutex
	counts  Counts
	write   parallel.Stream
	short   parallel.Stream
	sync    parallel.Stream
	read    parallel.Stream
	rename  parallel.Stream
	bitFlip parallel.Stream
}

// Wrap returns fsys with the plan's faults injected. A nil-rate (zero)
// plan returns fsys itself — the healthy path never pays for the seam. It
// panics on an invalid plan; use Plan.Validate to check first.
func Wrap(fsys FS, p Plan) FS {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if p.Zero() {
		return fsys
	}
	return &FaultFS{
		inner:   fsys,
		plan:    p,
		write:   parallel.NewStream(p.Seed, saltWrite),
		short:   parallel.NewStream(p.Seed, saltShort),
		sync:    parallel.NewStream(p.Seed, saltSync),
		read:    parallel.NewStream(p.Seed, saltRead),
		rename:  parallel.NewStream(p.Seed, saltRename),
		bitFlip: parallel.NewStream(p.Seed, saltBitFlip),
	}
}

// Counts returns the faults injected so far, by class.
func (f *FaultFS) Counts() Counts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}

// MkdirAll delegates to the wrapped FS; directory creation is not a
// faulted class (every consumer creates directories once, at startup,
// where an error is already surfaced loudly).
func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

// Open opens a file whose reads pass through the corruption channel.
func (f *FaultFS) Open(name string) (File, error) {
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

// OpenFile opens a file whose reads and writes pass through the fault
// channels.
func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

// CreateTemp creates a temporary file whose writes pass through the fault
// channels.
func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

// Rename fails with ErrIO at the plan's rename rate, leaving the old path
// in place; otherwise it delegates.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	inject := f.plan.RenameErrRate > 0 && f.rename.Next() < f.plan.RenameErrRate
	if inject {
		f.counts.RenameErrors++
	}
	f.mu.Unlock()
	if inject {
		metricRenameErrors.Inc()
		return fmt.Errorf("rename %s %s: %w", oldpath, newpath, ErrIO)
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove delegates to the wrapped FS. Removal is not a faulted class: the
// consumers use it only for best-effort cleanup of entries they already
// distrust.
func (f *FaultFS) Remove(name string) error { return f.inner.Remove(name) }

// Truncate delegates to the wrapped FS. Truncation is the journal's
// recovery action — injecting failures into recovery itself would only
// test the operating system's ability to lose twice.
func (f *FaultFS) Truncate(name string, size int64) error { return f.inner.Truncate(name, size) }

// ReadDir delegates to the wrapped FS.
func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.inner.ReadDir(name) }

// faultFile threads one file's reads and writes through the owning
// FaultFS's channels.
type faultFile struct {
	File
	fs *FaultFS
}

// Write fails outright (ErrNoSpace, nothing written) at the write-error
// rate, lands only the first half (then ErrNoSpace) at the short-write
// rate, and otherwise delegates.
func (f *faultFile) Write(p []byte) (int, error) {
	fs := f.fs
	fs.mu.Lock()
	var short bool
	switch {
	case fs.plan.WriteErrRate > 0 && fs.write.Next() < fs.plan.WriteErrRate:
		fs.counts.WriteErrors++
		fs.mu.Unlock()
		metricWriteErrors.Inc()
		return 0, fmt.Errorf("write %s: %w", f.Name(), ErrNoSpace)
	case fs.plan.ShortWriteRate > 0 && fs.short.Next() < fs.plan.ShortWriteRate && len(p) > 1:
		fs.counts.ShortWrites++
		short = true
	}
	fs.mu.Unlock()
	if short {
		metricShortWrites.Inc()
		n, err := f.File.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("write %s: %w", f.Name(), ErrNoSpace)
	}
	return f.File.Write(p)
}

// Sync fails with ErrIO at the sync-error rate — after the underlying
// write may already have landed, which is exactly what makes real fsync
// failures poisonous — and otherwise delegates.
func (f *faultFile) Sync() error {
	fs := f.fs
	fs.mu.Lock()
	inject := fs.plan.SyncErrRate > 0 && fs.sync.Next() < fs.plan.SyncErrRate
	if inject {
		fs.counts.SyncErrors++
	}
	fs.mu.Unlock()
	if inject {
		metricSyncErrors.Inc()
		return fmt.Errorf("sync %s: %w", f.Name(), ErrIO)
	}
	return f.File.Sync()
}

// Read flips one bit of the returned buffer at the corruption rate,
// modelling bit rot; the read itself succeeds, as rotted reads do.
func (f *faultFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	if n == 0 {
		return n, err
	}
	fs := f.fs
	fs.mu.Lock()
	inject := fs.plan.ReadCorruptRate > 0 && fs.read.Next() < fs.plan.ReadCorruptRate
	var pos int
	var bit uint
	if inject {
		fs.counts.ReadCorruptions++
		pos = int(fs.bitFlip.Next() * float64(n))
		if pos >= n {
			pos = n - 1
		}
		bit = uint(fs.bitFlip.Next() * 8)
		if bit > 7 {
			bit = 7
		}
	}
	fs.mu.Unlock()
	if inject {
		metricReadCorruptions.Inc()
		p[pos] ^= 1 << bit
	}
	return n, err
}
