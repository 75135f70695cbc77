package core

import (
	"context"
	"time"
)

// RunID identifies a sorted run in a RunStore.
type RunID int

// Token is the completion handle of an asynchronous run write. In the
// simulator Wait blocks the sort's process until the disk completes the
// write; real synchronous stores return already-completed tokens.
type Token interface {
	Wait() error
}

// PageToken is the completion handle of an asynchronous page read.
type PageToken interface {
	Wait() (Page, error)
}

// RunStore stores sorted runs. Implementations are bound to the executing
// process/goroutine: all calls for one *run* come from that single context
// (different runs may be driven from different goroutines).
//
// Buffer ownership: a store must not retain the page slices passed to
// Append past the completion of the returned token — the engine recycles
// its output page buffers once the token completes. Conversely, pages
// returned by ReadAsync are owned by the store's caller for reading; the
// caller must treat them as immutable (stores may return shared or
// buffer-aliasing pages). When the Env carries a Recycle hook, the engine
// hands every page it read back through it, exactly once, as soon as it
// stops referencing the page.
type RunStore interface {
	// Create opens a new empty run.
	Create() (RunID, error)
	// Append writes pages to the end of the run asynchronously. The pages
	// become readable once the returned token completes, and the caller may
	// reuse the page slices from that moment on.
	Append(id RunID, pages []Page) (Token, error)
	// ReadAsync starts reading one page (0-based) of the run.
	ReadAsync(id RunID, page int) PageToken
	// Pages returns the number of pages appended so far.
	Pages(id RunID) int
	// Free releases the run's storage.
	Free(id RunID) error
}

// Input is the source relation, consumed one page at a time (an external
// sort makes a single pass over its input during the split phase).
type Input interface {
	// NextPage returns the next input page, or ok=false at end of input.
	// A streaming input fills dst (nil, or a page the caller no longer
	// references) instead of allocating when it has room; inputs that hand
	// out read-only views of records they already hold ignore it. Either
	// way the caller must not write to the returned page.
	NextPage(dst Page) (Page, bool, error)
}

// Broker arbitrates buffer pages between the sort and the rest of the
// system. Pages are logical 8 KB units; Granted tracks what the sort holds,
// Target what it is currently entitled to. When Target drops below Granted
// the sort is under pressure and must Yield pages as fast as its current
// phase permits — the paper's central adaptation problem.
type Broker interface {
	Granted() int
	Target() int
	// Acquire grants up to n additional pages (bounded by Target and
	// availability) and returns the number granted.
	Acquire(n int) int
	// Yield returns n pages. The caller must have logically freed them.
	Yield(n int)
	// Pressure returns max(0, Granted()-Target()).
	Pressure() int
	// WaitTarget blocks until Target() >= n (n is clamped to the pool size).
	WaitTarget(n int)
	// WaitChange blocks until the target may have changed.
	WaitChange()
}

// Op enumerates CPU operations charged through the Meter. The instruction
// costs live in cpumodel.CostTable (the paper's Table 4).
type Op int

const (
	OpCompare    Op = iota // key comparison
	OpCopyTuple            // copy one tuple between buffers/heap
	OpBuildEntry           // build a (key,pointer) entry for Quicksort
	OpSwapEntry            // swap (key,pointer) entries during Quicksort
	OpStartIO              // initiate a disk request
	OpFixPage              // per-page buffer bookkeeping
)

// Meter receives CPU charges. The simulator implementation occupies the
// simulated CPU; the real engine's implementation just counts.
type Meter interface {
	Charge(op Op, n int64)
}

// ContextBroker is optionally implemented by brokers whose blocking waits
// can be interrupted by context cancellation. When the Env carries a context
// and its broker implements ContextBroker, suspension and empty-pool waits
// return the context's error promptly instead of blocking until the next
// budget change.
type ContextBroker interface {
	WaitTargetCtx(ctx context.Context, n int) error
	WaitChangeCtx(ctx context.Context) error
}

// Env bundles the substrate a sort executes against.
type Env struct {
	In    Input
	Store RunStore
	Mem   Broker
	Meter Meter
	// Ctx, when non-nil, cancels the operation: it is polled at every
	// adaptation point (split-phase page boundaries, merge output-page and
	// step boundaries, suspension waits), and the sort returns Ctx.Err()
	// promptly, freeing every run it created along the way.
	Ctx context.Context
	// Now returns the current time (simulated or wall-clock).
	Now func() time.Duration
	// SetPhase optionally reports phase transitions ("split", "merge",
	// "idle") so the buffer manager can attribute request delays.
	SetPhase func(string)
	// SetReclaim optionally registers a synchronous clean-buffer reclaimer
	// with the host's buffer manager (see bufmgr.Pool.Reclaimer). The merge
	// engine registers itself while running, so competing memory requests
	// are served from clean input buffers the instant they arrive — the
	// paper's sub-millisecond merge-phase delays. Hosts whose budget
	// changes arrive from concurrent goroutines (the real engine) must
	// leave this nil; adaptation then happens at page boundaries.
	SetReclaim func(fn func(need int) int)
	// OnEvent optionally receives adaptation events (splits, combines,
	// suspensions, phase changes) as they happen — the observable history
	// of how the operator adapted to memory fluctuation.
	OnEvent func(Event)
	// Trace optionally receives debug events.
	Trace func(format string, args ...any)
	// Recycle, when set, takes back a page returned by Store.ReadAsync
	// once the engine no longer references it, so the store can decode a
	// later read into the same frame. Each page read is recycled at most
	// once; pages dropped on error paths may never be.
	Recycle func(Page)

	// Worker tags events emitted through this Env with a 1-based parallel
	// worker id; 0 (the default) marks the operator's own goroutine.
	Worker int

	// ShouldPause and WaitResume are the deterministic quiesce protocol for
	// parallel workers: when the worker's share of the budget drops to zero
	// (a Pool/Budget shrink arbitrated across the crew), ShouldPause turns
	// true and the merge engine parks in WaitResume at its next output-page
	// boundary — after flushing the partial page, dropping every input
	// buffer and yielding its whole grant. Both are nil for serial
	// execution and in the simulator.
	ShouldPause func() bool
	WaitResume  func() error

	// stepSeq numbers merge steps within the operation (1-based); only the
	// operator goroutine creates steps, so no synchronization is needed.
	// Parallel worker Envs share one operation-wide counter via stepFn
	// instead, so (Worker, Step) pairs stay unique within the operation.
	stepSeq int
	stepFn  func() int
	// eventPanics counts OnEvent callbacks that panicked and were recovered.
	eventPanics int
	// onSplitPage, when set, observes replacement selection at every
	// page boundary of the split: the record slots its mini-run buffers pin
	// and the records they hold. Tests use it to check the residency bound.
	onSplitPage func(pinned, live int)
}

// nextStep hands out the next merge-step id.
func (e *Env) nextStep() int {
	if e.stepFn != nil {
		return e.stepFn()
	}
	e.stepSeq++
	return e.stepSeq
}

// EventPanics reports how many OnEvent callbacks panicked and were
// recovered during the operation. It is copied into the final stats so
// callers can tell their observer misbehaved.
func (e *Env) EventPanics() int {
	return e.eventPanics
}

func (e *Env) charge(op Op, n int64) {
	if n > 0 && e.Meter != nil {
		e.Meter.Charge(op, n)
	}
}

func (e *Env) setPhase(p string) {
	if e.SetPhase != nil {
		e.SetPhase(p)
	}
	e.emit(EvPhase, 0, p)
}

// recycle hands a page read from the store back through the Recycle hook.
func (e *Env) recycle(pg Page) {
	if e.Recycle != nil {
		e.Recycle(pg)
	}
}

func (e *Env) setReclaimFn(fn func(need int) int) {
	if e.SetReclaim != nil {
		e.SetReclaim(fn)
	}
}

func (e *Env) now() time.Duration {
	if e.Now != nil {
		return e.Now()
	}
	return 0
}

func (e *Env) trace(format string, args ...any) {
	if e.Trace != nil {
		e.Trace(format, args...)
	}
}

// ctxErr reports the Env's cancellation state.
func (e *Env) ctxErr() error {
	if e.Ctx == nil {
		return nil
	}
	return e.Ctx.Err()
}

// waitTarget blocks until the broker's target reaches n or the Env's
// context is canceled.
func (e *Env) waitTarget(n int) error {
	if e.Ctx != nil {
		if cb, ok := e.Mem.(ContextBroker); ok {
			return cb.WaitTargetCtx(e.Ctx, n)
		}
		if err := e.Ctx.Err(); err != nil {
			return err
		}
	}
	e.Mem.WaitTarget(n)
	return nil
}

// waitChange blocks until the budget changes or the Env's context is
// canceled.
func (e *Env) waitChange() error {
	if e.Ctx != nil {
		if cb, ok := e.Mem.(ContextBroker); ok {
			return cb.WaitChangeCtx(e.Ctx)
		}
		if err := e.Ctx.Err(); err != nil {
			return err
		}
	}
	e.Mem.WaitChange()
	return nil
}

// yieldAll hands every granted page back to the broker.
func (e *Env) yieldAll() {
	if g := e.Mem.Granted(); g > 0 {
		e.Mem.Yield(g)
	}
}

// freeRuns releases runs abandoned by an aborted operation (best effort:
// store errors during cleanup are dropped in favor of the original error).
// Shared key-range clones only drop their buffers — the underlying run
// belongs to the parallel merge coordinator.
func freeRuns(e *Env, runs []*runInfo) {
	for _, r := range runs {
		if r == nil || r.freed {
			continue
		}
		r.freed = true
		r.drop(e)
		if r.shared {
			continue
		}
		_ = e.Store.Free(r.id)
	}
}
