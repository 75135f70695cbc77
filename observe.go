package masort

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/memadapt/masort/internal/pagecodec"
	"github.com/memadapt/masort/trace"
)

// Tracer receives engine trace events; see the trace package for the event
// vocabulary and the stdlib-only implementations (Metrics, Chrome, Ring).
type Tracer = trace.Tracer

// EventKind classifies adaptation events. It is the trace package's Kind,
// so kinds print as their snake_case trace names ("split", "step_end").
type EventKind = trace.Kind

// Adaptation event kinds, as trace kinds. A WithEvents callback also
// receives trace.KindRun and trace.KindStepBegin.
const (
	EvSplitStep    = trace.KindSplit
	EvCombineStart = trace.KindCombineBegin
	EvCombineDone  = trace.KindCombineEnd
	EvCombineAbort = trace.KindCombineAbort
	EvSuspend      = trace.KindSuspend
	EvResume       = trace.KindResume
	EvStepDone     = trace.KindStepEnd
	EvPhase        = trace.KindPhase
)

// Event is one adaptation event, as delivered to a WithEvents callback.
type Event struct {
	Kind EventKind
	// At is the time since the operator's engine started.
	At time.Duration
	// Target and Granted are the memory state when the event fired.
	Target  int
	Granted int
	// Detail depends on the kind: fan-in of the new step for EvSplitStep,
	// the combined fan-in for EvCombineStart/EvCombineDone, the step's
	// fan-in for EvSuspend/EvResume/EvStepDone and trace.KindStepBegin, the
	// run's length in pages for trace.KindRun, and 0 otherwise.
	Detail int
	// Step numbers the merge step the event belongs to, 1-based within the
	// operation: the step begun or done, or for EvCombineDone the sub-step
	// the combine absorbed (its span ends there, not at an EvStepDone); 0
	// for other kinds. Steps of one operation interleave under dynamic
	// splitting, so matching begin/done pairs need the id.
	Step int
	// Worker identifies the parallel worker that emitted the event,
	// 1-based; 0 for events from the operator's own goroutine (all events
	// of a serial operation).
	Worker int
	// Phase carries the phase name ("split", "merge", "idle") for EvPhase.
	Phase string
}

// opSeq numbers operators process-wide so trace events from concurrent
// operators (a pooled workload) can be told apart.
var opSeq atomic.Uint64

// emitSafe delivers one event to a tracer behind a recover guard:
// observability must never corrupt the operation it is watching. A panicking
// tracer loses its event and, when a counter is supplied, is counted into
// Stats.EventPanics.
func emitSafe(t trace.Tracer, ev trace.Event, panics *atomic.Int64) {
	if t == nil {
		return
	}
	defer func() {
		if recover() != nil && panics != nil {
			panics.Add(1)
		}
	}()
	t.Emit(ev)
}

// opTrace is one operator's observability context: its process-unique trace
// id, the composed tracer (user tracer plus the optional WithEventLog ring),
// the WithEvents callback, and the panic counter feeding Stats.EventPanics.
// It is the core engine's Tracer. A nil *opTrace is valid and inert — the
// untraced path costs one nil check per call site.
type opTrace struct {
	tr     trace.Tracer
	ring   *trace.Ring
	user   func(Event)
	userMu sync.Mutex // serializes user: parallel workers emit concurrently

	id       uint64
	name     string
	start    time.Time // operator begin (includes pool admission)
	envStart time.Time // core engine start; core event times are offsets from it

	panics atomic.Int64
}

// newOpTrace assembles the operator's observability context, or nil when
// nothing observes it.
func newOpTrace(o *Options, name string) *opTrace {
	if o.Tracer == nil && o.OnEvent == nil && o.EventLog <= 0 {
		return nil
	}
	ot := &opTrace{user: o.OnEvent, name: name, start: time.Now()}
	ot.envStart = ot.start
	ot.tr = o.Tracer
	if o.EventLog > 0 {
		ot.ring = trace.NewRing(o.EventLog)
		ot.tr = trace.Multi(o.Tracer, ot.ring)
	}
	ot.id = opSeq.Add(1)
	return ot
}

// begin announces the operator. Its timestamp precedes pool admission, so
// the op span covers time spent queued (KindPoolAdmit reports that wait
// separately).
func (t *opTrace) begin() {
	if t == nil {
		return
	}
	emitSafe(t.tr, trace.Event{Kind: trace.KindOpBegin, Time: t.start, Op: t.id, Name: t.name}, &t.panics)
}

// end closes the operator span, carrying the error of a failed operator.
func (t *opTrace) end(err error) {
	if t == nil {
		return
	}
	ev := trace.Event{Kind: trace.KindOpEnd, Time: time.Now(), Op: t.id, Name: t.name, Dur: time.Since(t.start)}
	if err != nil {
		ev.Err = err.Error()
	}
	emitSafe(t.tr, ev, &t.panics)
}

// Emit receives the core engine's events — the ten kinds from KindPhase to
// KindResume — from the operator's goroutine or, under WithWorkers,
// concurrently from its workers. It stamps the operator id and the wall
// clock (the engine reads no clock for observers) and delivers to the
// tracer and to the WithEvents callback, one at a time for the latter.
// Each sink is recovered on its own and counted into Stats.EventPanics, so
// a panicking callback still lets the tracer see the event and vice versa.
func (t *opTrace) Emit(ev trace.Event) {
	ev.Op, ev.Time = t.id, time.Now()
	emitSafe(t.tr, ev, &t.panics)
	if t.user == nil {
		return
	}
	t.userMu.Lock()
	defer t.userMu.Unlock()
	defer func() {
		if recover() != nil {
			t.panics.Add(1)
		}
	}()
	t.user(Event{
		Kind:    ev.Kind,
		At:      ev.Time.Sub(t.envStart),
		Target:  ev.Target,
		Granted: ev.Granted,
		Detail:  ev.Pages,
		Step:    ev.Step,
		Worker:  ev.Worker,
		Phase:   ev.Name,
	})
}

// finishStats folds the measured store I/O and any recovered observer panics
// into the operator's final stats.
func (t *opTrace) finishStats(st *Stats, ts *tracedStore) {
	if t == nil {
		return
	}
	if ts != nil {
		ts.fill(st)
	}
	st.EventPanics += int(t.panics.Load())
}

// attach hands the operator's event-log ring (if any) to its Result.
func (t *opTrace) attach(res *Result) {
	if t != nil {
		res.Events = t.ring
	}
}

// tracedStore wraps the operator's run store, measuring every append batch
// and page read: count, encoded bytes, and issue-to-completion latency —
// the real engine's counterpart of the simulator's modeled I/O. The
// measurements feed both the tracer (KindStoreRead / KindStoreWrite events)
// and the Result's Stats aggregates, so for one operator against a fresh
// metrics registry the two agree by construction. It wraps any RunStore —
// MemStore, FileStore, or a custom one.
type tracedStore struct {
	RunStore
	ot *opTrace

	reads, writes           atomic.Int64
	bytesRead, bytesWritten atomic.Int64
	readNanos, writeNanos   atomic.Int64
	retries                 atomic.Int64
}

func (s *tracedStore) fill(st *Stats) {
	st.StoreReads = int(s.reads.Load())
	st.StoreWrites = int(s.writes.Load())
	st.BytesRead = s.bytesRead.Load()
	st.BytesWritten = s.bytesWritten.Load()
	st.ReadLatency = time.Duration(s.readNanos.Load())
	st.WriteLatency = time.Duration(s.writeNanos.Load())
	st.StoreRetries = int(s.retries.Load())
}

// retrier is implemented by store tokens that report how many failed
// attempts were retried before the operation settled (see
// StoreConfig.WithRetry); tokens without the method count as zero retries.
type retrier interface{ Retries() int }

// noteRetries folds a completed token's retry count into the store
// aggregates.
func (s *tracedStore) noteRetries(tok any) {
	if rt, ok := tok.(retrier); ok {
		if n := rt.Retries(); n > 0 {
			s.retries.Add(int64(n))
		}
	}
}

func (s *tracedStore) Append(id RunID, pages []Page) (Token, error) {
	if len(pages) == 0 {
		return s.RunStore.Append(id, pages)
	}
	var bytes int64
	for _, pg := range pages {
		bytes += int64(pagecodec.EncodedSize(pg))
	}
	start := time.Now()
	tok, err := s.RunStore.Append(id, pages)
	if err != nil {
		return tok, err
	}
	return &tracedToken{Token: tok, s: s, start: start, bytes: bytes}, nil
}

func (s *tracedStore) ReadAsync(id RunID, page int) PageToken {
	return &tracedPageToken{PageToken: s.RunStore.ReadAsync(id, page), s: s, start: time.Now()}
}

// tracedToken observes an append batch; the measurement completes at the
// first Wait (when the batch is durable). The engine drives each run from a
// single goroutine, so the done flag needs no synchronization.
type tracedToken struct {
	Token
	s     *tracedStore
	start time.Time
	bytes int64
	done  bool
}

func (t *tracedToken) Wait() error {
	err := t.Token.Wait()
	if !t.done {
		t.done = true
		d := time.Since(t.start)
		t.s.writes.Add(1)
		t.s.bytesWritten.Add(t.bytes)
		t.s.writeNanos.Add(int64(d))
		t.s.noteRetries(t.Token)
		if ot := t.s.ot; ot.tr != nil {
			emitSafe(ot.tr, trace.Event{
				Kind: trace.KindStoreWrite, Time: time.Now(), Op: ot.id,
				Bytes: t.bytes, Dur: d,
			}, &ot.panics)
		}
	}
	return err
}

// tracedPageToken observes one page read, completing at the first Wait.
type tracedPageToken struct {
	PageToken
	s     *tracedStore
	start time.Time
	done  bool
}

func (t *tracedPageToken) Wait() (Page, error) {
	pg, err := t.PageToken.Wait()
	if !t.done {
		t.done = true
		d := time.Since(t.start)
		var bytes int64
		if err == nil {
			bytes = int64(pagecodec.EncodedSize(pg))
		}
		t.s.reads.Add(1)
		t.s.bytesRead.Add(bytes)
		t.s.readNanos.Add(int64(d))
		t.s.noteRetries(t.PageToken)
		if ot := t.s.ot; ot.tr != nil {
			emitSafe(ot.tr, trace.Event{
				Kind: trace.KindStoreRead, Time: time.Now(), Op: ot.id,
				Bytes: bytes, Dur: d,
			}, &ot.panics)
		}
	}
	return pg, err
}
