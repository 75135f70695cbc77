// Package masort is a memory-adaptive external sorting and sort-merge join
// library — a production-grade implementation of the algorithms from
// "Memory-Adaptive External Sorting" (Pang, Carey, Livny; VLDB 1993).
//
// An external sort runs in two phases: a split phase that cuts the input
// into sorted runs using an in-memory method (Quicksort or replacement
// selection, optionally with block writes), and a merge phase that combines
// the runs. What sets this library apart is that the memory available to a
// sort may be changed while it runs — shrunk when the host system needs
// pages for higher-priority work and grown when memory frees up — and the
// sort adapts:
//
//   - in the split phase, by writing tuples out and releasing pages (or
//     absorbing new ones into its workspace);
//   - in the merge phase, by suspension, MRU buffer paging, or dynamic
//     splitting — splitting an executing merge step into sub-steps that fit
//     the shrunken memory and combining steps again as memory returns.
//
// The memory contract is a *Budget measured in logical pages; Grow and
// Shrink may be called concurrently from any goroutine and take effect at
// the sort's adaptation points. (Because Go is garbage-collected, pages are
// logical accounting units, not RSS guarantees.)
//
// Quick start:
//
//	budget := masort.NewBudget(64) // 64 pages
//	res, err := masort.Sort(ctx, masort.NewSliceIterator(records),
//		masort.WithBudget(budget),
//	)
//	if err != nil { ... }
//	defer res.Close()
//	for rec, err := range res.All() {
//		if err != nil { ... }
//		...
//	}
//
// While Sort runs, budget.Shrink(16) or budget.Grow(32) adjusts its memory,
// and canceling ctx aborts it at the next adaptation point with all run
// storage released. The default configuration is the paper's
// recommendation: replacement selection with 6-page block writes, optimized
// merging, dynamic splitting ("repl6,opt,split").
//
// Arbitrary record types flow through the engine via the generic facade:
// define a Codec[T] (key extraction plus payload encode/decode) and use
// SortT or SortSliceT. Sort-merge joins (Join), grouped aggregation
// (GroupBy) and run compaction (Merge) run on the same adaptive machinery
// and compose through the shared *Budget.
//
// # The shared pool
//
// Where a *Budget is one operator's private contract, a *Pool is a
// process-wide shared memory region — the wall-clock counterpart of the
// paper's buffer manager, arbitrating a fixed total of pages among every
// operator started with WithPool(p) plus the application's own
// reservations (Pool.Reserve / Pool.Release, the paper's competing
// memory requests). Each of N admitted operators is entitled to an equal
// share of what reservations have not taken, never below a per-operator
// floor; admission is controlled (queue or reject) so the floors always
// remain coverable; entitlements shift as operators come and go and
// operators adapt at their usual adaptation points. The operator's side
// of the arbitration — admission wait, grants, blocking waits — is
// reported in Result.Pool. See the README's "shared pool" section for
// the full ownership and fairness contract, and examples/concurrentpool
// for the multiprogramming scenario end to end.
//
// # Parallel execution
//
// WithWorkers(n) runs both phases of an operator on a crew of n workers
// (0 resolves to GOMAXPROCS; default serial) without changing the
// output: the parallel result is value-identical to the serial one. The
// worker model is
//
//   - split phase: workers consume the shared input in page-sized bites
//     and each produces sorted runs from its share of the budget;
//   - merge phase: the key space is partitioned at run-page fence keys
//     (the first key of each page) and each worker merges one disjoint
//     key range into its own output segment, in one pass. Sort and Merge
//     share this path; the fences of runs handed to Merge are read from
//     the store as the partitioning needs them. A parallel Result holds up
//     to Workers key-ordered segments that Iterator/All chain
//     transparently;
//   - memory: the single *Budget (or *Pool entitlement) is split into
//     deterministic equal shares, remainder to the lowest ranks. Every
//     Shrink propagates to every worker at its next output-page
//     boundary; when the target cannot sustain the whole crew the
//     highest ranks park and later resume, and suspension, MRU paging,
//     dynamic splitting and cancellation all operate per-worker exactly
//     as they do serially.
//
// Buffer ownership is unchanged by parallelism: each page buffer has a
// single owning worker from fill to Append hand-off, runs are written by
// exactly one goroutine, and completed runs may be read by several
// goroutines concurrently (the RunStore contract all backends pass
// storetest with). Result.Stats.Workers reports the crew size. The
// simulator never sets workers, keeping its tables byte-identical.
//
// # Choosing a run store
//
// Sorted runs live in a RunStore, chosen with WithStore and built by the
// NewStoreConfig builder, which applies one set of knobs (page checksums,
// read concurrency, retry policy, fault hooks, tracing) to whichever
// backend it finishes with:
//
//	store, err := masort.NewStoreConfig().
//		WithRetry(masort.RetryPolicy{MaxAttempts: 3}).
//		Striped("/disk1/tmp", "/disk2/tmp")
//
// Four backends cover the spectrum, each kept for a measured reason (2-vCPU
// VM, Go 1.24, ext4):
//
//   - MemStore (NewMemStore, the default): runs held in memory. Fastest;
//     run data is bounded by RAM. Tests and small sorts.
//   - FileStore (StoreConfig.File): one directory, checksummed frames, a
//     background writer per run, bounded read concurrency, retry and
//     rollback on write failure. The workhorse single-disk store and the
//     default the others are measured against.
//   - StripedStore (StoreConfig.Striped): pages striped round-robin over
//     N directories — one per physical device — with per-device writers
//     and a merged durability token, so one run's write bandwidth is the
//     sum of its devices'. The real-engine twin of the paper's Disks
//     experiment: under BenchmarkStoreMatrixDiskModel's modeled device
//     (100µs + 1ns/B per write) striped2 writes 1.66× faster than file.
//   - MmapStore (StoreConfig.Mmap): file-backed runs read zero-copy
//     through a memory mapping; falls back with ErrMmapUnsupported where
//     mmap is unavailable. Read-heavy merges on large page caches: on the
//     perfbench payload-fluctuating workload it allocates 0.83 B per input
//     byte against FileStore's 3.73 and spends 0.74 s of CPU per sort
//     against 1.01 s, because paging hardware carries the reads.
//
// NewStoreConfig is the only way to configure a store. Every backend
// honors the same RunStore contract (see RunStore), passes the storetest
// conformance suite, and reports store_retry / store_gave_up events
// through the trace seam.
//
// # Buffer ownership
//
// A sort reuses its page frames, so its allocation follows its grant
// rather than its input, which makes buffer ownership part of the
// contract. Slices given to NewSliceIterator are read in place (do not
// mutate them until the operator returns). Pages passed to
// RunStore.Append belong to the store only until the returned token
// completes. Pages returned by RunStore.ReadAsync are read-only; FileStore,
// MmapStore and StripedStore decode them into pooled frames that the
// engine hands back once it stops referencing them (a store wrapped in a
// caller's type hides this, and its reads allocate as before). Payloads
// are zero-copy and never recycled: every Record.Payload of a FileStore
// page aliases one read buffer, which lives exactly as long as records
// referencing it — callers retaining payloads from many pages should copy
// them (append([]byte(nil), rec.Payload...)), and must never mutate them.
// See README.md ("Buffer ownership and zero-copy") for the full rules.
//
// See README.md for a tour of the repository, and cmd/masim for the full
// reproduction of the paper's evaluation on a simulated DBMS.
package masort
