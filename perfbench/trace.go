package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/memadapt/masort"
)

// The traced run observes the library only at its public seams: the input
// Iterator, a RunStore decorator with its Token and PageToken, the
// *Budget's Granted and Target, the Result iterator, Stats and Counters,
// and WithEvents phase events. Spans are kept in memory and written out
// when the benchmark ends.

type spanKind uint8

const (
	spInput     spanKind = iota // one input page pulled through the Iterator
	spAppend                    // RunStore.Append: encode, CRC and enqueue
	spWriteWait                 // Token.Wait
	spRead                      // ReadAsync issue to PageToken.Wait return
	spReadWait                  // time blocked in PageToken.Wait
	spSplit                     // split phase, from WithEvents
	spMerge                     // merge phase, from WithEvents
	spSort                      // the masort.Sort call
	spDrain                     // Result.Iterator drained
)

var spanNames = [...]string{"input.page", "store.append", "store.write_wait",
	"store.read", "store.read_wait", "split", "merge", "sort", "drain"}

// blocking reports whether the sorting goroutine is blocked inside another
// layer for the span's whole length; phase self time excludes those.
func (k spanKind) blocking() bool {
	return k == spInput || k == spAppend || k == spWriteWait || k == spReadWait
}

type span struct {
	kind       spanKind
	start, end int64 // ns since the recorder's origin
}

func (s span) dur() int64 { return s.end - s.start }

// recorder collects one sort's spans and store-side counts. The store
// decorator calls it from every goroutine the engine issues I/O from.
type recorder struct {
	origin time.Time
	budget *masort.Budget

	mu    sync.Mutex
	spans []span
	phase spanKind // the open phase, while at >= 0
	at    int64    // start of the open phase; -1 when none is open

	appendCalls, readCalls  int64
	pagesWritten, pagesRead int64
	// Budget adaptation, sampled at each store call.
	lastTarget    int
	shrinks       int
	responding    bool  // a shrink is not yet answered by Granted <= Target
	responseOps   int64 // page operations spent answering shrinks
	excessPageOps int64 // Σ max(0, Granted-Target) over store calls
}

func newRecorder(b *masort.Budget) *recorder {
	return &recorder{origin: time.Now(), budget: b, at: -1, lastTarget: b.Target()}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// since converts t to the recorder's clock.
func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.origin)) }

func (r *recorder) add(k spanKind, start, end int64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{k, start, end})
	r.mu.Unlock()
}

// onEvent turns WithEvents phase changes into split and merge spans.
func (r *recorder) onEvent(ev masort.Event) {
	if ev.Kind != masort.EvPhase {
		return
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.at >= 0 {
		r.spans = append(r.spans, span{r.phase, r.at, t})
		r.at = -1
	}
	switch ev.Phase {
	case "split":
		r.phase, r.at = spSplit, t
	case "merge":
		r.phase, r.at = spMerge, t
	}
}

// observe counts one store call moving pages and samples the budget.
func (r *recorder) observe(pages int, write bool) {
	granted, target := r.budget.Granted(), r.budget.Target()
	r.mu.Lock()
	defer r.mu.Unlock()
	if write {
		r.appendCalls++
		r.pagesWritten += int64(pages)
	} else {
		r.readCalls++
		r.pagesRead += int64(pages)
	}
	if target < r.lastTarget {
		r.shrinks++
		r.responding = true
	}
	r.lastTarget = target
	if granted <= target {
		r.responding = false
	} else {
		r.excessPageOps += int64(granted - target)
	}
	if r.responding {
		r.responseOps += int64(pages)
	}
}

// benchStore decorates the sort's RunStore. It drives the workload's
// budget schedule from the page traffic and, when rec is set, records the
// store's spans. It never keeps the pages passed to Append.
type benchStore struct {
	masort.RunStore
	budget *masort.Budget
	base   int       // budget pages outside a cut
	sched  *schedule // nil: fixed budget
	ops    atomic.Int64
	rec    *recorder // nil: untraced
}

// tick advances the page-operation count and applies the schedule.
func (s *benchStore) tick(pages int) {
	if s.sched == nil {
		return
	}
	after := s.ops.Add(int64(pages))
	was, now := s.sched.cut(after-int64(pages)), s.sched.cut(after)
	switch {
	case now && !was:
		s.budget.Resize(s.sched.to)
	case was && !now:
		s.budget.Resize(s.base)
	}
}

// stopSchedule ends the schedule once the sort has returned and restores
// the budget. The sort's goroutines have all exited by then.
func (s *benchStore) stopSchedule() {
	if s.sched != nil {
		s.sched = nil
		s.budget.Resize(s.base)
	}
}

func (s *benchStore) Append(id masort.RunID, pages []masort.Page) (masort.Token, error) {
	s.tick(len(pages))
	if s.rec == nil {
		return s.RunStore.Append(id, pages)
	}
	s.rec.observe(len(pages), true)
	t0 := s.rec.now()
	tok, err := s.RunStore.Append(id, pages)
	s.rec.add(spAppend, t0, s.rec.now())
	if err != nil {
		return tok, err
	}
	return &writeToken{Token: tok, rec: s.rec}, nil
}

func (s *benchStore) ReadAsync(id masort.RunID, page int) masort.PageToken {
	s.tick(1)
	if s.rec == nil {
		return s.RunStore.ReadAsync(id, page)
	}
	s.rec.observe(1, false)
	issued := s.rec.now()
	return &readToken{PageToken: s.RunStore.ReadAsync(id, page), rec: s.rec, issued: issued}
}

type writeToken struct {
	masort.Token
	rec *recorder
}

func (t *writeToken) Wait() error {
	t0 := t.rec.now()
	err := t.Token.Wait()
	t.rec.add(spWriteWait, t0, t.rec.now())
	return err
}

// readToken is waited on by one goroutine at a time, so done needs no
// synchronization.
type readToken struct {
	masort.PageToken
	rec    *recorder
	issued int64
	done   bool
}

func (t *readToken) Wait() (masort.Page, error) {
	t0 := t.rec.now()
	pg, err := t.PageToken.Wait()
	t1 := t.rec.now()
	t.rec.add(spReadWait, t0, t1)
	if !t.done {
		t.done = true
		t.rec.add(spRead, t.issued, t1)
	}
	return pg, err
}

// tracedInput records one span per input page. masort pages an Iterator by
// calling Next pageRecords times in a row, so a page's span runs from the
// first of those calls to the return of the last.
type tracedInput struct {
	it      masort.Iterator
	rec     *recorder
	calls   int
	records int
	start   int64
}

func (t *tracedInput) Next() (masort.Record, bool, error) {
	if t.calls%pageRecords == 0 {
		t.start = t.rec.now()
	}
	t.calls++
	r, ok, err := t.it.Next()
	if ok {
		t.records++
	}
	if !ok || t.calls%pageRecords == 0 {
		t.rec.add(spInput, t.start, t.rec.now())
	}
	return r, ok, err
}

// layerTimes are the per-layer times of one traced sort, in seconds.
type layerTimes struct {
	inputPull, splitWall, splitSelf, mergeWall, mergeSelf float64
	appendS, writeWait, readWait, drainReadWait           float64
	readP50us, readP99us                                  float64
}

// times derives the layer times from the recorded spans. A phase's self
// time is its length minus the part of it that blocking spans cover.
func (r *recorder) times() layerTimes {
	var lt layerTimes
	var drain span
	for _, s := range r.spans {
		if s.kind == spDrain {
			drain = s
		}
	}
	var phases, blocked []span
	var reads []int64
	for _, s := range r.spans {
		d := secs(s.dur())
		switch s.kind {
		case spSplit, spMerge:
			phases = append(phases, s)
		case spRead:
			reads = append(reads, s.dur())
		case spInput:
			lt.inputPull += d
		case spAppend:
			lt.appendS += d
		case spWriteWait:
			lt.writeWait += d
		case spReadWait:
			if s.start >= drain.start {
				lt.drainReadWait += d
			} else {
				lt.readWait += d
			}
		}
		if s.kind.blocking() {
			blocked = append(blocked, s)
		}
	}
	covered := union(blocked)
	for _, p := range phases {
		self := secs(p.dur() - overlap(covered, p))
		if p.kind == spSplit {
			lt.splitWall += secs(p.dur())
			lt.splitSelf += self
		} else {
			lt.mergeWall += secs(p.dur())
			lt.mergeSelf += self
		}
	}
	if len(reads) > 0 {
		slices.Sort(reads)
		lt.readP50us = float64(reads[len(reads)/2]) / 1e3
		lt.readP99us = float64(reads[len(reads)*99/100]) / 1e3
	}
	return lt
}

// union merges spans into disjoint intervals sorted by start.
func union(spans []span) []span {
	slices.SortFunc(spans, func(a, b span) int { return int(a.start - b.start) })
	var out []span
	for _, s := range spans {
		if n := len(out); n > 0 && s.start <= out[n-1].end {
			out[n-1].end = max(out[n-1].end, s.end)
			continue
		}
		out = append(out, s)
	}
	return out
}

// overlap returns how much of p the disjoint, sorted intervals cover.
func overlap(covered []span, p span) int64 {
	var n int64
	for _, c := range covered {
		if lo, hi := max(c.start, p.start), min(c.end, p.end); hi > lo {
			n += hi - lo
		}
	}
	return n
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// writeSpans writes the spans of the last traced sort as JSON, every span
// a child of that sort's span.
func writeSpans(path string, meta map[string]any, r *recorder) error {
	type jspan struct {
		Name    string `json:"name"`
		StartUS int64  `json:"start_us"`
		EndUS   int64  `json:"end_us"`
		Parent  string `json:"parent"`
	}
	out := struct {
		Machine map[string]any `json:"machine"`
		Spans   []jspan        `json:"spans"`
	}{Machine: meta}
	for _, s := range r.spans {
		parent := "sort"
		if s.kind == spSort {
			parent = ""
		}
		out.Spans = append(out.Spans, jspan{spanNames[s.kind], s.start / 1e3, s.end / 1e3, parent})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
