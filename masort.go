package masort

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/memadapt/masort/internal/core"
)

// Method selects the split-phase in-memory sorting method.
type Method int

const (
	// ReplacementSelection produces runs averaging twice the memory size;
	// with BlockPages > 1 it writes runs in blocks to cut disk seeks. This
	// is the paper's recommended method (repl6 with BlockPages=6).
	ReplacementSelection Method = iota
	// Quicksort fills memory, sorts, and writes memory-sized runs. It frees
	// memory only at run boundaries, so it reacts to Shrink more slowly.
	Quicksort
)

// MergeStrategy selects the preliminary-merge fan-in policy.
type MergeStrategy int

const (
	// Optimized merges just enough runs first so every later step merges at
	// full fan-in (the paper's "opt"; almost always the right choice).
	Optimized MergeStrategy = iota
	// Naive merges at full fan-in in every step.
	Naive
)

// Adaptation selects the merge-phase reaction to budget changes.
type Adaptation int

const (
	// DynamicSplitting splits an executing merge step into sub-steps that
	// fit a shrunken budget and combines steps when the budget grows — the
	// paper's contribution and the best performer.
	DynamicSplitting Adaptation = iota
	// MRUPaging keeps merging with fewer buffers, paging inputs in and out
	// with most-recently-used replacement.
	MRUPaging
	// Suspension stops the merge until the budget is restored.
	Suspension
)

// Options is the configuration the functional options (WithBudget,
// WithMethod, ...) fold into for Sort, Join, GroupBy and Merge. The zero
// value gives the paper's recommended algorithm (repl6,opt,split) with an
// in-memory store and a fixed 64-page budget.
type Options struct {
	Method     Method
	BlockPages int // replacement-selection write block; default 6
	Merge      MergeStrategy
	Adaptation Adaptation

	// PageRecords sets records per page — the granularity of both I/O and
	// memory accounting. Default 256.
	PageRecords int

	// Budget is the adjustable memory contract; default: fixed 64 pages.
	Budget *Budget

	// Pool, when set, runs the operator under a process-wide shared pool
	// instead of Budget (which is then ignored): the operator is admitted
	// at start, entitled to an arbitrated equal share while running, and
	// detached at the end, with its view of the arbitration reported in
	// Result.Pool. See WithPool.
	Pool *Pool

	// Store holds runs; default: NewMemStore(). Use NewFileStore for
	// datasets larger than memory.
	Store RunStore

	// AdaptiveBlockIO spends budget beyond a merge step's requirement on
	// multi-page read-ahead (the paper's §7 future-work extension).
	AdaptiveBlockIO bool

	// Workers is the number of goroutines the operator may use for run
	// generation and merging; 0 and 1 both mean serial execution. Set it
	// through WithWorkers, which also resolves the use-all-cores default.
	// This is the single CPU-parallelism knob — budget arbitration across
	// the workers stays with Budget/Pool, which the crew subdivides
	// deterministically.
	Workers int

	// OnEvent, if set, receives adaptation events (phase changes, step
	// splits, combines, suspensions) as they happen — the observable
	// history of how the operator reacted to budget changes. The callback
	// runs inside the sort and must be fast. See WithEvents for the kinds
	// delivered and the concurrency contract.
	OnEvent func(Event)

	// Tracer, if set, receives the operator's full observability stream
	// (lifecycle, phases, runs, merge steps, adaptation actions, store
	// I/O). See WithTracer.
	Tracer Tracer

	// EventLog, if positive, attaches a ring buffer retaining the last
	// EventLog trace events to Result.Events. See WithEventLog.
	EventLog int
}

func (o Options) build() (core.SortConfig, Options, error) {
	cfg := core.SortConfig{
		PageRecords: o.PageRecords,
		BlockPages:  o.BlockPages,
		MinPages:    3,
	}
	if cfg.PageRecords == 0 {
		cfg.PageRecords = 256
		o.PageRecords = 256
	}
	switch o.Method {
	case ReplacementSelection:
		cfg.Method = core.Repl
		if cfg.BlockPages == 0 {
			cfg.BlockPages = 6
		}
	case Quicksort:
		cfg.Method = core.Quick
	default:
		return cfg, o, fmt.Errorf("masort: unknown method %d", o.Method)
	}
	switch o.Merge {
	case Optimized:
		cfg.Merge = core.OptMerge
	case Naive:
		cfg.Merge = core.NaiveMerge
	default:
		return cfg, o, fmt.Errorf("masort: unknown merge strategy %d", o.Merge)
	}
	switch o.Adaptation {
	case DynamicSplitting:
		cfg.Adapt = core.DynSplit
	case MRUPaging:
		cfg.Adapt = core.Paging
	case Suspension:
		cfg.Adapt = core.Suspend
	default:
		return cfg, o, fmt.Errorf("masort: unknown adaptation %d", o.Adaptation)
	}
	cfg.AdaptiveBlockIO = o.AdaptiveBlockIO
	cfg.Workers = o.Workers
	if o.Budget == nil {
		o.Budget = NewBudget(64)
	}
	if o.Store == nil {
		o.Store = NewMemStore()
	}
	if err := cfg.Validate(); err != nil {
		return cfg, o, err
	}
	return cfg, o, nil
}

// newEnv assembles the core execution environment shared by every operator
// entry point. With an observer attached (ot non-nil) the engine's event
// stream is routed through it, and with a tracer attached the run store is
// wrapped so per-operation I/O is measured; the returned tracedStore is nil
// on the untraced path. When the store pools its read frames, the engine
// recycles every page it read through it.
func newEnv(ctx context.Context, o Options, mem core.Broker, meter *counterMeter, ot *opTrace) (*core.Env, *tracedStore) {
	start := time.Now()
	env := &core.Env{
		Ctx:   ctx,
		Store: o.Store,
		Mem:   mem,
		Meter: meter,
		Now:   func() time.Duration { return time.Since(start) },
	}
	if rc, ok := o.Store.(recycler); ok {
		env.Recycle = rc.recycle
	}
	var ts *tracedStore
	if ot != nil {
		ot.envStart = start
		env.Tracer = ot // only when non-nil: a typed-nil *opTrace would defeat the engine's nil check
		if ot.tr != nil {
			ts = &tracedStore{RunStore: o.Store, ot: ot}
			env.Store = ts
		}
	}
	return env, ts
}

// memContract resolves the operator's memory broker. Under a Pool the
// operator is admitted first (which may queue until capacity frees, or
// fail — ErrPoolSaturated under RejectWhenFull, the context's error if
// canceled while queued). The returned finish func must be called exactly
// once when the operator is done: it detaches from the pool and, when
// passed a non-nil Result, attaches the operator's PoolStats to it.
func memContract(ctx context.Context, o *Options, ot *opTrace) (core.Broker, func(*Result), error) {
	if o.Pool == nil {
		return o.Budget, func(*Result) {}, nil
	}
	var opID uint64
	if ot != nil {
		opID = ot.id
	}
	h, err := o.Pool.admit(ctx, opID)
	if err != nil {
		return nil, nil, wrapCtxErr(ctx, err)
	}
	return h, func(res *Result) {
		st := o.Pool.unregister(h)
		if res != nil {
			res.Pool = &st
		}
	}, nil
}

// Stats reports what a sort or join did.
type Stats = core.SortStats

// JoinStats extends Stats with join-specific counts.
type JoinStats = core.JoinStats

// Counters tallies CPU-relevant operations (comparisons, tuple copies).
type Counters struct {
	Compares   int64
	TupleMoves int64
}

type counterMeter struct {
	compares atomic.Int64
	moves    atomic.Int64
}

func (m *counterMeter) Charge(op core.Op, n int64) {
	switch op {
	case core.OpCompare:
		m.compares.Add(n)
	case core.OpCopyTuple:
		m.moves.Add(n)
	}
}

func (m *counterMeter) counters() Counters {
	return Counters{
		Compares:   m.compares.Load(),
		TupleMoves: m.moves.Load(),
	}
}

// Sort externally sorts the input under the configured memory budget and
// returns a handle to the sorted run.
//
// Canceling ctx aborts the sort at its next adaptation point — split-phase
// page boundaries, merge output-page and step boundaries, and suspension
// waits — freeing every run it created; the returned error then matches
// both ErrCanceled and the context's own error.
func Sort(ctx context.Context, input Iterator, opts ...Option) (*Result, error) {
	return sortWith(ctx, input, applyOptions(opts))
}

func sortWith(ctx context.Context, input Iterator, opt Options) (*Result, error) {
	return sortNamed(ctx, input, opt, "sort")
}

// sortNamed is sortWith with the operator name used for trace attribution
// (GroupBy runs on the sort engine but announces itself as "groupby").
func sortNamed(ctx context.Context, input Iterator, opt Options, opName string) (*Result, error) {
	cfg, o, err := opt.build()
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ot := newOpTrace(&o, opName)
	ot.begin()
	mem, finish, err := memContract(ctx, &o, ot)
	if err != nil {
		ot.end(err)
		return nil, err
	}
	meter := &counterMeter{}
	env, ts := newEnv(ctx, o, mem, meter, ot)
	env.In = &pageInput{it: input, size: o.PageRecords}
	res, err := core.ExternalSort(env, cfg)
	if err != nil {
		finish(nil)
		err = wrapCtxErr(env.Ctx, err)
		ot.end(err)
		return nil, err
	}
	out := &Result{
		store:    o.Store,
		runs:     res.Segments,
		Pages:    res.Pages,
		Tuples:   res.Tuples,
		Stats:    res.Stats,
		Counters: meter.counters(),
	}
	ot.finishStats(&out.Stats, ts)
	ot.attach(out)
	finish(out)
	ot.end(nil)
	return out, nil
}

// SortSlice sorts records in external fashion and returns the sorted slice —
// a convenience wrapper around Sort for small inputs and tests.
func SortSlice(ctx context.Context, recs []Record, opts ...Option) ([]Record, error) {
	res, err := Sort(ctx, NewSliceIterator(recs), opts...)
	if err != nil {
		return nil, err
	}
	defer res.Close()
	return Drain(res.Iterator())
}
