package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// ---- thread-safe test substrate (the serial harness in testenv_test.go is
// deliberately unsynchronized; parallel tests need their own) ----

// ctxBudget is a minimal mutex+cond Broker with context-cancelable waits —
// the shape of the real masort.Budget, local to the tests so the core
// package stays dependency-free.
type ctxBudget struct {
	mu      sync.Mutex
	cond    *sync.Cond
	target  int
	granted int
}

func newCtxBudget(total int) *ctxBudget {
	b := &ctxBudget{target: total}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *ctxBudget) Granted() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.granted
}

func (b *ctxBudget) Target() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.target
}

func (b *ctxBudget) Acquire(n int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if room := b.target - b.granted; n > room {
		n = room
	}
	if n < 0 {
		n = 0
	}
	b.granted += n
	if n > 0 {
		b.cond.Broadcast()
	}
	return n
}

func (b *ctxBudget) Yield(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n > b.granted {
		panic(fmt.Sprintf("ctxBudget: yield %d with %d granted", n, b.granted))
	}
	b.granted -= n
	b.cond.Broadcast()
}

func (b *ctxBudget) Pressure() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if p := b.granted - b.target; p > 0 {
		return p
	}
	return 0
}

func (b *ctxBudget) Resize(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.target = n
	b.cond.Broadcast()
}

func (b *ctxBudget) WaitTarget(n int) { _ = b.WaitTargetCtx(context.Background(), n) }
func (b *ctxBudget) WaitChange()      { _ = b.WaitChangeCtx(context.Background()) }

func (b *ctxBudget) wait(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	})
	b.cond.Wait()
	stop()
	return ctx.Err()
}

func (b *ctxBudget) WaitTargetCtx(ctx context.Context, n int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.target < n {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := b.wait(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (b *ctxBudget) WaitChangeCtx(ctx context.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	return b.wait(ctx)
}

// safeStore is a mutex-guarded in-memory RunStore with an append
// observation hook, for driving budget changes from store traffic.
type safeStore struct {
	mu    sync.Mutex
	runs  map[RunID][]Page
	freed map[RunID]bool
	next  RunID
	// onAppend observes (run, total appends so far, pages in this batch)
	// under the store lock.
	onAppend func(id RunID, nth int, pages int)
	appends  int
}

func newSafeStore() *safeStore {
	return &safeStore{runs: map[RunID][]Page{}, freed: map[RunID]bool{}}
}

func (s *safeStore) Create() (RunID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.next
	s.next++
	s.runs[id] = nil
	return id, nil
}

func (s *safeStore) Append(id RunID, pages []Page) (Token, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freed[id] {
		return nil, fmt.Errorf("append to freed run %d", id)
	}
	for _, p := range pages {
		cp := make(Page, len(p))
		copy(cp, p)
		s.runs[id] = append(s.runs[id], cp)
	}
	s.appends++
	if s.onAppend != nil {
		s.onAppend(id, s.appends, len(pages))
	}
	return instantToken{}, nil
}

func (s *safeStore) ReadAsync(id RunID, page int) PageToken {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freed[id] {
		return instantPageToken{err: fmt.Errorf("read of freed run %d", id)}
	}
	pages := s.runs[id]
	if page < 0 || page >= len(pages) {
		return instantPageToken{err: fmt.Errorf("read page %d of run %d with %d pages", page, id, len(pages))}
	}
	return instantPageToken{pg: pages[page]}
}

func (s *safeStore) Pages(id RunID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs[id])
}

func (s *safeStore) Free(id RunID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freed[id] {
		return fmt.Errorf("double free of run %d", id)
	}
	s.freed[id] = true
	return nil
}

func (s *safeStore) liveRuns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for id := range s.runs {
		if !s.freed[id] {
			n++
		}
	}
	return n
}

func (s *safeStore) records(ids []RunID) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Record
	for _, id := range ids {
		for _, p := range s.runs[id] {
			out = append(out, p...)
		}
	}
	return out
}

// ---- tests ----

// TestParallelSortMatchesSerial is the determinism contract: for every
// method × adaptation, the concatenated parallel segments must be
// value-identical to the serial output on the same input.
func TestParallelSortMatchesSerial(t *testing.T) {
	recs := makeRecords(20000, 7)
	for _, method := range []Method{Quick, Repl} {
		for _, adapt := range []Adapt{Suspend, Paging, DynSplit} {
			for _, workers := range []int{2, 4} {
				name := fmt.Sprintf("m%d_a%d_w%d", method, adapt, workers)
				t.Run(name, func(t *testing.T) {
					cfg := SortConfig{
						Method: method, BlockPages: 6, Merge: OptMerge,
						Adapt: adapt, PageRecords: 32, MinPages: 3,
					}
					env, store, _, _ := testEnv(t, recs, 32, 48, 3)
					serial, err := ExternalSort(env, cfg)
					if err != nil {
						t.Fatalf("serial sort: %v", err)
					}
					want := runRecords(t, store, serial.Result)

					pcfg := cfg
					pcfg.Workers = workers
					pstore := newSafeStore()
					penv := &Env{
						In:    &sliceInput{pages: pagesOf(recs, 32)},
						Store: pstore,
						Mem:   newCtxBudget(48),
						Ctx:   context.Background(),
					}
					par, err := ExternalSort(penv, pcfg)
					if err != nil {
						t.Fatalf("parallel sort: %v", err)
					}
					if par.Stats.Workers != workers {
						t.Fatalf("Stats.Workers = %d, want %d", par.Stats.Workers, workers)
					}
					got := pstore.records(par.Segments)
					if len(got) != len(want) {
						t.Fatalf("parallel output %d records, serial %d", len(got), len(want))
					}
					for i := range got {
						if got[i].Key != want[i].Key {
							t.Fatalf("output diverges at %d: parallel %d, serial %d", i, got[i].Key, want[i].Key)
						}
					}
					if live := pstore.liveRuns(); live != len(par.Segments) {
						t.Fatalf("store has %d live runs, want %d segments", live, len(par.Segments))
					}
					if g := penv.Mem.Granted(); g != 0 {
						t.Fatalf("broker still has %d pages granted", g)
					}
				})
			}
		}
	}
}

// TestParallelShrinkPropagatesToAllWorkers is the satellite-2 regression: a
// budget shrink arriving mid-parallel-merge must reach every worker at its
// next output-page boundary, not just one of them. A worker may have one
// output page already in flight when the shrink lands, so from each
// worker's second post-shrink append onward the crew must collectively hold
// no more than the new target.
func TestParallelShrinkPropagatesToAllWorkers(t *testing.T) {
	const (
		total     = 48
		newTarget = 24
		workers   = 4
	)
	recs := makeRecords(40000, 11)
	budget := newCtxBudget(total)
	store := newSafeStore()

	type obs struct {
		id      RunID
		granted int
	}
	var (
		obsMu        sync.Mutex
		log          []obs
		shrunk       bool
		merging      bool
		mergeAppends int
	)
	env := &Env{
		In:    &sliceInput{pages: pagesOf(recs, 32)},
		Store: store,
		Mem:   budget,
		Ctx:   context.Background(),
		OnEvent: func(ev Event) {
			if ev.Kind == EvPhase && ev.Phase == "merge" {
				obsMu.Lock()
				merging = true
				obsMu.Unlock()
			}
		},
	}
	store.onAppend = func(id RunID, nth, pages int) {
		obsMu.Lock()
		defer obsMu.Unlock()
		if !merging {
			return
		}
		mergeAppends++
		if !shrunk {
			// Let the parallel merge produce a few output pages at full
			// budget, then shrink.
			if mergeAppends > 4 {
				shrunk = true
				budget.Resize(newTarget)
			}
			return
		}
		log = append(log, obs{id: id, granted: budget.Granted()})
	}

	cfg := DefaultConfig()
	cfg.PageRecords = 32
	cfg.Workers = workers
	res, err := ExternalSort(env, cfg)
	if err != nil {
		t.Fatalf("sort: %v", err)
	}
	if len(res.Segments) < 2 {
		t.Fatalf("expected a parallel merge with >1 segment, got %d", len(res.Segments))
	}

	obsMu.Lock()
	defer obsMu.Unlock()
	if !shrunk {
		t.Fatal("shrink never triggered")
	}
	// Find each segment's second post-shrink append; after the last of
	// those, every worker has passed an adaptation point and the crew must
	// be within the new target for the rest of the merge.
	seen := map[RunID]int{}
	settle := -1
	for i, o := range log {
		seen[o.id]++
		if seen[o.id] == 2 {
			settle = i
		}
	}
	if settle < 0 || settle >= len(log)-1 {
		t.Fatalf("merge finished too fast to observe propagation (%d post-shrink appends)", len(log))
	}
	for _, o := range log[settle+1:] {
		if o.granted > newTarget {
			t.Fatalf("after every worker's page boundary, crew still holds %d > new target %d", o.granted, newTarget)
		}
	}
}

// TestParallelSuspendResumeMidMerge shrinks the budget so far that workers
// must quiesce, then restores it: the merge must resume and complete with
// suspensions on record.
func TestParallelSuspendResumeMidMerge(t *testing.T) {
	for _, adapt := range []Adapt{Suspend, DynSplit} {
		t.Run(fmt.Sprintf("adapt%d", adapt), func(t *testing.T) {
			const total = 48
			recs := makeRecords(30000, 3)
			budget := newCtxBudget(total)
			store := newSafeStore()
			var (
				mu           sync.Mutex
				merging      bool
				mergeAppends int
				shrunk       bool
				suspends     int
				restored     bool
			)
			env := &Env{
				In:    &sliceInput{pages: pagesOf(recs, 32)},
				Store: store,
				Mem:   budget,
				Ctx:   context.Background(),
				OnEvent: func(ev Event) {
					mu.Lock()
					defer mu.Unlock()
					switch {
					case ev.Kind == EvPhase && ev.Phase == "merge":
						merging = true
					case ev.Kind == EvSuspend && shrunk && !restored:
						// Once two workers have parked (the budget sustains
						// at most two of the four), give the memory back so
						// the merge resumes. Everyone else is either still
						// suspending or actively merging on a reduced share.
						suspends++
						if suspends >= 2 {
							restored = true
							budget.Resize(total)
						}
					}
				},
			}
			store.onAppend = func(id RunID, nth, pages int) {
				mu.Lock()
				defer mu.Unlock()
				if !merging || shrunk {
					return
				}
				mergeAppends++
				if mergeAppends > 4 {
					shrunk = true
					// 6 pages sustains at most two 3-page workers: the other
					// two must pause until the restore above.
					budget.Resize(6)
				}
			}
			cfg := SortConfig{
				Method: Repl, BlockPages: 6, Merge: OptMerge,
				Adapt: adapt, PageRecords: 32, MinPages: 3, Workers: 4,
			}
			res, err := ExternalSort(env, cfg)
			if err != nil {
				t.Fatalf("sort: %v", err)
			}
			got := store.records(res.Segments)
			checkSorted(t, got)
			checkPermutation(t, recs, got)
			if res.Stats.Suspensions == 0 {
				t.Fatal("expected at least one suspension/pause during the shrink window")
			}
			if g := budget.Granted(); g != 0 {
				t.Fatalf("broker still has %d pages granted", g)
			}
		})
	}
}

// TestParallelCancelMidMerge cancels mid-parallel-merge and requires a
// leak-free abort: every run freed, every page yielded.
func TestParallelCancelMidMerge(t *testing.T) {
	recs := makeRecords(30000, 5)
	budget := newCtxBudget(48)
	store := newSafeStore()
	ctx, cancel := context.WithCancel(context.Background())
	var (
		mu           sync.Mutex
		merging      bool
		mergeAppends int
		canceled     bool
	)
	env := &Env{
		In:    &sliceInput{pages: pagesOf(recs, 32)},
		Store: store,
		Mem:   budget,
		Ctx:   ctx,
		OnEvent: func(ev Event) {
			if ev.Kind == EvPhase && ev.Phase == "merge" {
				mu.Lock()
				merging = true
				mu.Unlock()
			}
		},
	}
	store.onAppend = func(id RunID, nth, pages int) {
		mu.Lock()
		defer mu.Unlock()
		if canceled || !merging {
			return
		}
		mergeAppends++
		if mergeAppends > 6 {
			canceled = true
			cancel()
		}
	}
	cfg := DefaultConfig()
	cfg.PageRecords = 32
	cfg.Workers = 4
	_, err := ExternalSort(env, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if live := store.liveRuns(); live != 0 {
		t.Fatalf("aborted sort left %d live runs", live)
	}
	if g := budget.Granted(); g != 0 {
		t.Fatalf("aborted sort left %d pages granted", g)
	}
}

// TestParallelMergeExistingTree drives the fence-less merge-tree path.
func TestParallelMergeExistingTree(t *testing.T) {
	store := newSafeStore()
	env := &Env{Store: store, Mem: newCtxBudget(32), Ctx: context.Background()}
	var ids []RunID
	var all []Record
	for i := 0; i < 9; i++ {
		recs := makeRecords(2000, uint64(100+i))
		sortRecords(recs)
		ri, err := writeRun(env, recs, 32)
		if err != nil {
			t.Fatalf("writeRun: %v", err)
		}
		ri.fences = nil // MergeExisting inputs carry no fences
		ids = append(ids, ri.id)
		all = append(all, recs...)
	}
	cfg := DefaultConfig()
	cfg.PageRecords = 32
	cfg.Workers = 3
	res, err := MergeExisting(env, cfg, ids)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if res.Stats.Workers != 3 {
		t.Fatalf("Stats.Workers = %d, want 3", res.Stats.Workers)
	}
	got := store.records([]RunID{res.Result})
	checkSorted(t, got)
	checkPermutation(t, all, got)
	if live := store.liveRuns(); live != 1 {
		t.Fatalf("store has %d live runs, want 1", live)
	}
}

// TestParallelFallsBackWithoutContextBroker: a broker without context waits
// cannot host the crew, so the sort must run serially and still succeed.
func TestParallelFallsBackWithoutContextBroker(t *testing.T) {
	recs := makeRecords(5000, 9)
	env, store, _, _ := testEnv(t, recs, 32, 32, 3)
	cfg := DefaultConfig()
	cfg.PageRecords = 32
	cfg.Workers = 4
	res, err := ExternalSort(env, cfg)
	if err != nil {
		t.Fatalf("sort: %v", err)
	}
	if res.Stats.Workers != 1 {
		t.Fatalf("Stats.Workers = %d, want 1 (serial fallback)", res.Stats.Workers)
	}
	if len(res.Segments) != 1 {
		t.Fatalf("serial fallback produced %d segments", len(res.Segments))
	}
	got := runRecords(t, store, res.Result)
	checkSorted(t, got)
	checkPermutation(t, recs, got)
}

// TestCrewShares pins the deterministic share arithmetic: the target
// divides among the lowest-ranked live workers that can each hold minNeed
// pages, remainder to the lowest ranks, recomputed from the live target on
// every call.
func TestCrewShares(t *testing.T) {
	budget := newCtxBudget(32)
	e := &Env{Mem: budget, Ctx: context.Background()}
	c := newCrew(e, 4, 3)
	defer c.close(e)

	share := func(id int) int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.shareLocked(id)
	}
	for id, want := range []int{8, 8, 8, 8} {
		if got := share(id); got != want {
			t.Fatalf("share(%d) = %d, want %d at target 32", id, got, want)
		}
	}
	budget.Resize(34) // remainder 2 goes to the two lowest ranks
	for id, want := range []int{9, 9, 8, 8} {
		if got := share(id); got != want {
			t.Fatalf("share(%d) = %d, want %d at target 34", id, got, want)
		}
	}
	budget.Resize(7) // only two workers can hold minNeed=3: ranks 2,3 pause
	for id, want := range []int{4, 3, 0, 0} {
		if got := share(id); got != want {
			t.Fatalf("share(%d) = %d, want %d at target 7", id, got, want)
		}
	}
	if !c.paused(2) || !c.paused(3) {
		t.Fatal("ranks 2 and 3 should be paused at target 7")
	}
	c.leave(0) // rank improves: worker 1 becomes rank 0, worker 2 resumes
	for id, want := range []int{0, 4, 3, 0} {
		if got := share(id); got != want {
			t.Fatalf("share(%d) = %d, want %d after leave(0)", id, got, want)
		}
	}
	if c.paused(2) {
		t.Fatal("worker 2 should have resumed after worker 0 left")
	}
}

// TestWorkerWaitChangeSeesEarlierWakeup pins the crew's lost-wakeup fix. A
// split worker whose share is zero finds no pages and then waits for a
// change; if its sibling finishes in between, that departure is the only
// change that will ever come (nothing else touches the budget), so the
// wait must return at once instead of parking forever.
func TestWorkerWaitChangeSeesEarlierWakeup(t *testing.T) {
	budget := newCtxBudget(4)
	e := &Env{Mem: budget, Ctx: context.Background()}
	c := newCrew(e, 2, 6) // target 4 < minNeed 6: only rank 0 is active
	defer c.close(e)
	w1 := &workerShare{c: c, id: 1}
	if got := w1.Acquire(4); got != 0 {
		t.Fatalf("paused worker acquired %d pages", got)
	}
	c.leave(0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w1.WaitChangeCtx(ctx); err != nil {
		t.Fatalf("wait missed the sibling's departure: %v", err)
	}
	if got := w1.Acquire(4); got != 4 {
		t.Fatalf("sole worker acquired %d pages, want 4", got)
	}
	w1.Yield(4)
}

// sortRecords orders records by the engine's comparator (test helper).
func sortRecords(recs []Record) {
	n := len(recs)
	// simple in-place heapsort to avoid importing sort twice in tests
	var down func(i, n int)
	down = func(i, n int) {
		for {
			l, r, s := 2*i+1, 2*i+2, i
			if l < n && Less(recs[s], recs[l]) {
				s = l
			}
			if r < n && Less(recs[s], recs[r]) {
				s = r
			}
			if s == i {
				return
			}
			recs[i], recs[s] = recs[s], recs[i]
			i = s
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		down(i, n)
	}
	for i := n - 1; i > 0; i-- {
		recs[0], recs[i] = recs[i], recs[0]
		down(0, i)
	}
}
