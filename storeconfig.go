package masort

import "github.com/memadapt/masort/trace"

// StoreConfig is the one way to configure a disk-backed run store:
// FileStore, StripedStore and MmapStore all read the same knobs (read
// concurrency, page checksums, retry policy, fault hooks, tracer), so
// adding a backend never re-grows a parallel option set. NewFileStore,
// NewStripedStore and NewMmapStore are default-config shortcuts.
//
// Each backend that remains is kept for a measured reason (2-vCPU VM,
// Go 1.24, ext4):
//   - FileStore is the default.
//   - MmapStore: on the perfbench payload-fluctuating workload it allocated
//     1.5 B per input byte against FileStore's 5.0, and spent 1.16 s of CPU
//     per sort against 1.47 s (medians of 3 seeds) — paging hardware
//     carries the reads.
//   - StripedStore: under BenchmarkStoreMatrixDiskModel's modeled device
//     (100µs + 1ns/B per write), striped2 writes 1.66× faster than one
//     FileStore — the real-engine twin of the paper's Disks experiment.
//
// It is a builder: the With* methods mutate the receiver and return it, so
// configuration chains into a terminal constructor —
//
//	store, err := masort.NewStoreConfig().
//		WithRetry(masort.RetryPolicy{MaxAttempts: 3}).
//		WithTracer(metrics).
//		Striped("/mnt/d0/runs", "/mnt/d1/runs")
//
// One StoreConfig may build any number of stores (each constructor snapshots
// the relevant fields), but it is not safe for concurrent mutation.
type StoreConfig struct {
	readConc int
	sums     bool
	retry    RetryPolicy
	faults   func(device int) FaultHooks
	tr       trace.Tracer
}

// NewStoreConfig returns the default store configuration: read concurrency
// DefaultReadConcurrency, page checksums on, no retry, no fault hooks, no
// tracer — the same defaults NewFileStore has always had.
func NewStoreConfig() *StoreConfig {
	return &StoreConfig{readConc: DefaultReadConcurrency, sums: true}
}

// WithReadConcurrency bounds the number of page reads a backend executes in
// parallel (default DefaultReadConcurrency). Striped stores apply the bound
// per device. Values below 1 are ignored. It has no effect on MmapStore
// (reads are memory accesses).
func (c *StoreConfig) WithReadConcurrency(n int) *StoreConfig {
	if n > 0 {
		c.readConc = n
	}
	return c
}

// WithPageChecksums selects whether run pages are framed with a
// CRC32-Castagnoli checksum (default true). With checksums on, a read that
// returns different bytes than were written fails with ErrCorruptPage in
// the chain (after one silent re-read) instead of decoding garbage; the
// cost is 5 bytes per page and one CRC pass per append and read. Turning
// them off restores the legacy frame, byte-compatible with stores from
// before checksums existed.
func (c *StoreConfig) WithPageChecksums(on bool) *StoreConfig {
	c.sums = on
	return c
}

// WithRetry sets the retry policy for transiently failing I/O: each read
// attempt and each write attempt gets p.MaxAttempts tries with doubling
// backoff before the operation fails with ErrStoreFailed in the chain.
// Permanent errors (ENOSPC, EROFS, anything reporting Temporary() == false)
// skip the retries and fail fast. The default is a single attempt.
func (c *StoreConfig) WithRetry(p RetryPolicy) *StoreConfig {
	c.retry = p
	return c
}

// WithFaults installs fault-injection hooks on the physical I/O of every
// device of the built store. Meant for tests (see internal/faultinject); a
// nil hook leaves the I/O untouched.
func (c *StoreConfig) WithFaults(h FaultHooks) *StoreConfig {
	if h == nil {
		c.faults = nil
	} else {
		c.faults = func(int) FaultHooks { return h }
	}
	return c
}

// WithDeviceFaults installs per-device fault-injection hooks: fn is invoked
// with each device index (0-based; single-device backends use device 0) and
// returns the hooks for that device, or nil to leave it untouched. This is
// how tests target one stripe of a StripedStore while the others stay
// healthy.
func (c *StoreConfig) WithDeviceFaults(fn func(device int) FaultHooks) *StoreConfig {
	c.faults = fn
	return c
}

// WithTracer attaches a tracer to the built store: the async write
// pipeline's queue depth is sampled as KindStoreQueue events, the retry
// layer emits KindStoreRetry / KindStoreGaveUp.
// Per-read and per-write latency events are emitted by the operator's
// WithTracer layer, not here, so they can be attributed to the operator.
func (c *StoreConfig) WithTracer(t Tracer) *StoreConfig {
	c.tr = t
	return c
}

// faultsAt returns the fault hooks for one device (nil when none are
// configured for it).
func (c *StoreConfig) faultsAt(device int) FaultHooks {
	if c.faults == nil {
		return nil
	}
	return c.faults(device)
}

// File builds a disk-backed FileStore in dir; dir is created if missing.
// If dir is empty, a fresh temporary directory is used and removed on
// Close. See FileStore for the backend's semantics.
func (c *StoreConfig) File(dir string) (*FileStore, error) {
	return newFileStore(dir, c, 0)
}

// Striped builds a StripedStore over one directory per device — ideally
// each on its own disk or filesystem. See StripedStore.
func (c *StoreConfig) Striped(dirs ...string) (*StripedStore, error) {
	return newStripedStore(c, dirs)
}

// Mmap builds an mmap-backed MmapStore in dir (created if missing; a fresh
// temporary directory when empty, removed on Close). See MmapStore. On
// platforms without mmap support it fails with ErrMmapUnsupported.
func (c *StoreConfig) Mmap(dir string) (*MmapStore, error) {
	return newMmapStore(dir, c)
}
