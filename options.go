package masort

import "runtime"

// Option configures Sort, Join, GroupBy and Merge. Options compose left to
// right; later options override earlier ones.
type Option func(*Options)

// WithMethod selects the split-phase in-memory sorting method.
func WithMethod(m Method) Option {
	return func(o *Options) { o.Method = m }
}

// WithBlockPages sets the replacement-selection write block in pages
// (default 6 — the paper's repl6).
func WithBlockPages(n int) Option {
	return func(o *Options) { o.BlockPages = n }
}

// WithMergeStrategy selects the preliminary-merge fan-in policy.
func WithMergeStrategy(s MergeStrategy) Option {
	return func(o *Options) { o.Merge = s }
}

// WithAdaptation selects the merge-phase reaction to budget changes.
func WithAdaptation(a Adaptation) Option {
	return func(o *Options) { o.Adaptation = a }
}

// WithPageRecords sets records per page — the granularity of both I/O and
// memory accounting (default 256).
func WithPageRecords(n int) Option {
	return func(o *Options) { o.PageRecords = n }
}

// WithBudget sets the adjustable memory contract the operator runs under.
// The same *Budget may be shared by several operators (a query plan) and
// resized from any goroutine while they run.
func WithBudget(b *Budget) Option {
	return func(o *Options) { o.Budget = b }
}

// WithPool runs the operator under a process-wide shared Pool instead of a
// private Budget: the operator is admitted at start (which may queue or
// fail, see AdmissionPolicy), receives an equal share of the pool
// arbitrated against all concurrently running operators and application
// reservations, and detaches when it finishes. The operator's view of the
// arbitration is reported in Result.Pool. WithPool overrides WithBudget.
func WithPool(p *Pool) Option {
	return func(o *Options) { o.Pool = p }
}

// WithStore sets the run store (default NewMemStore; use NewFileStore for
// datasets larger than memory).
func WithStore(s RunStore) Option {
	return func(o *Options) { o.Store = s }
}

// WithAdaptiveBlockIO spends budget beyond a merge step's requirement on
// multi-page read-ahead (the paper's §7 future-work extension).
func WithAdaptiveBlockIO(on bool) Option {
	return func(o *Options) { o.AdaptiveBlockIO = on }
}

// WithWorkers sets how many goroutines the operator may use for run
// generation and merging — the single CPU-parallelism option. n = 0 means
// "use every core" (runtime.GOMAXPROCS(0), resolved when the option is
// applied); n <= 1 means serial execution, the default.
//
// Parallelism changes neither the output nor the memory contract: the
// result is value-identical to a serial sort of the same input, and the
// workers collectively never hold more than the Budget/Pool target — a
// Shrink propagates to every worker at its next page boundary, pausing
// workers the shrunken budget can no longer sustain (at least one always
// keeps merging). A parallel sort or merge may return its output as several
// key-partitioned segment runs; Result.Iterator chains them transparently
// and Result.Close frees them all. Stats.Workers reports the worker count
// used. The simulator ignores parallelism entirely — simulated sorts are
// defined to be single-threaded.
func WithWorkers(n int) Option {
	return func(o *Options) {
		if n == 0 {
			n = runtime.GOMAXPROCS(0)
		}
		if n < 1 {
			n = 1
		}
		o.Workers = n
	}
}

// WithEvents installs a callback receiving the engine's adaptation events
// as they happen. It is an adapter over the trace stream (see WithTracer)
// that delivers its ten engine kinds: EvPhase, trace.KindRun,
// trace.KindStepBegin, EvStepDone, EvSplitStep, EvCombineStart,
// EvCombineDone, EvCombineAbort, EvSuspend and EvResume. The Ev* names
// are trace kinds, so they print in snake_case ("split", "combine_end").
// WithEvents alone does not measure store I/O; WithTracer does.
//
// Concurrency contract: the engine invokes the callback sequentially —
// never concurrently with itself for one operator. A serial operator calls
// it on its own goroutine; a parallel one (WithWorkers) serializes worker
// events through a mutex, so calls may arrive on worker goroutines
// (Event.Worker says which). A callback shared across operators (a pooled
// workload) must be safe for concurrent use, since each operator invokes
// its own copy of the stream. The callback must be fast — it runs inside
// the sort's adaptation path. A panicking callback is recovered and
// counted in Stats.EventPanics; it never corrupts the operation.
func WithEvents(fn func(Event)) Option {
	return func(o *Options) { o.OnEvent = fn }
}

// WithTracer attaches a tracer to the operator: it receives the full
// observability stream — operator begin/end, phase transitions, every
// sorted run, merge-step spans, adaptation actions (splits, combines,
// suspensions, resumes) and per-operation store I/O with byte counts and
// latencies. Combine tracers with trace.Multi; share one trace.Metrics
// across operators to aggregate a whole workload.
//
// Most events fire on the operator's goroutine, but store I/O completions
// may fire from other goroutines — tracers must be safe for concurrent use
// (all implementations in the trace package are). A nil tracer is valid
// and costs nothing; a panicking tracer is recovered and counted in
// Stats.EventPanics.
//
// Tracing also fills the Stats store-I/O aggregates (StoreReads,
// BytesWritten, ...), which stay zero on the untraced path.
func WithTracer(t Tracer) Option {
	return func(o *Options) { o.Tracer = t }
}

// WithEventLog attaches a flight-recorder ring retaining the operator's
// last n trace events to Result.Events — cheap always-on capture of the
// moments before whatever made the result interesting. It composes with
// WithTracer (both see the stream).
func WithEventLog(n int) Option {
	return func(o *Options) { o.EventLog = n }
}

// applyOptions folds a chain of Options into the configuration struct.
func applyOptions(opts []Option) Options {
	var o Options
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}
