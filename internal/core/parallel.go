package core

// Parallel execution of the real engine's two phases (ISSUE 10). The
// simulator never reaches this file: cfg.Workers > 1 is only ever set by the
// public API. Everything here therefore runs wall-clock goroutines freely
// while the simulated engine stays single-threaded and byte-identical.
//
// Worker model:
//
//   - One crew per phase arbitrates the operation's single Broker across W
//     workers. Each worker sees a private Broker view (workerShare) whose
//     Target is a deterministic share of the live parent target — t/active
//     with the remainder going to the lowest-ranked live workers — so a
//     Pool.Resize or Budget.Shrink propagates to every worker at its next
//     page boundary, not just one of them. When the target cannot sustain
//     all workers (active = t/minNeed), the highest-ranked workers' shares
//     drop to zero and they quiesce deterministically (mergeEngine
//     maybeQuiesce) until budget returns or a sibling finishes.
//   - Run generation: workers pull input pages from a mutex-guarded shared
//     input and run the ordinary quickSplit/replSplit against their own
//     Env view, each appending complete runs through its own store path.
//   - Merge (ExternalSort and MergeExisting alike): the coordinator derives
//     W-1 splitter keys from the runs' per-page first-key fences and cuts
//     every run into key-range clones; each worker merges its clones into
//     one output segment. Segments concatenate in key order, so parallel
//     output is value-identical to serial output. The split phase records
//     fences as it writes a run; a run handed in by id has its fences read
//     from the store as the coordinator needs them (a per-run sample for
//     the splitters, then each clone's binary search).
import (
	"cmp"
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/memadapt/masort/trace"
)

// crew coordinates the worker goroutines of one parallel phase over the
// operation's single Broker. All shares derive from the live parent target
// on every call, so budget changes are seen by every worker at its next
// broker interaction.
type crew struct {
	parent  Broker
	minNeed int // pages a worker needs to be active (1 split, MinPages merge)

	mu      sync.Mutex
	cond    *sync.Cond
	gen     uint64 // counts wakeups, so a waiter can tell it missed one
	granted []int
	live    []bool
	nlive   int
	total   int // sum of granted, tracked for the high-water mark
	maxTot  int

	steps   atomic.Int64 // operation-wide merge-step counter
	cancel  context.CancelFunc
	fwdDone chan struct{}
}

// newCrew starts the crew and its budget-change forwarder.
func newCrew(e *Env, workers, minNeed int) *crew {
	c := &crew{
		parent:  e.Mem,
		minNeed: minNeed,
		granted: make([]int, workers),
		live:    make([]bool, workers),
		nlive:   workers,
		fwdDone: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	for i := range c.live {
		c.live[i] = true
	}
	c.steps.Store(int64(e.stepSeq))
	base := e.Ctx
	if base == nil {
		base = context.Background()
	}
	fctx, cancel := context.WithCancel(base)
	c.cancel = cancel
	// The forwarder translates parent budget changes (Pool.Resize,
	// Budget.Shrink/Grow, sibling-operator churn) into crew wakeups, so a
	// parked worker re-evaluates its share promptly.
	//masortlint:allow simdeterminism -- real-engine parallel path, unreachable from the simulator (sim never sets cfg.Workers > 1): the forwarder only wakes crew waiters when the budget changes
	go func() {
		defer close(c.fwdDone)
		for {
			if err := e.Mem.WaitChange(fctx); err != nil {
				return
			}
			c.mu.Lock()
			c.wakeLocked()
			c.mu.Unlock()
		}
	}()
	return c
}

// close stops the forwarder and folds the shared step counter back into the
// Env. Call once every worker has finished.
func (c *crew) close(e *Env) {
	c.cancel()
	<-c.fwdDone
	e.stepSeq = int(c.steps.Load())
}

// shareLocked computes worker id's page entitlement from the live parent
// target: the target divides among the lowest-ranked live workers that can
// each get at least minNeed pages (always at least one), remainder to the
// lowest ranks. Pure function of (target, live set), so every worker
// computes the same partition — a shrink quiesces workers deterministically
// instead of racing them.
func (c *crew) shareLocked(id int) int {
	if !c.live[id] {
		return 0
	}
	t := c.parent.Target()
	active := c.nlive
	if c.minNeed > 0 {
		if a := t / c.minNeed; a < active {
			active = a
		}
	}
	if active < 1 {
		active = 1
	}
	rank := 0
	for i := 0; i < id; i++ {
		if c.live[i] {
			rank++
		}
	}
	if rank >= active {
		return 0
	}
	s := t / active
	if rank < t%active {
		s++
	}
	return s
}

// wakeLocked wakes every crew waiter: the budget, a grant or the live set
// changed.
func (c *crew) wakeLocked() {
	c.gen++
	c.cond.Broadcast()
}

// waitLocked blocks on the crew condition until the next wakeup (sibling
// acquire/yield/leave or a forwarded budget change); ctx interrupts it.
func (c *crew) waitLocked(ctx context.Context) error {
	if ctx == nil {
		c.cond.Wait()
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	c.cond.Wait()
	stop()
	return ctx.Err()
}

// paused reports whether worker id's share has dropped to zero — the signal
// for the merge engine to quiesce at its next output-page boundary.
func (c *crew) paused(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live[id] && c.shareLocked(id) == 0
}

// waitActive parks worker id until its share is nonzero again (budget
// returned, or a lower-ranked sibling finished and its rank improved).
func (c *crew) waitActive(ctx context.Context, id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.shareLocked(id) == 0 {
		if err := c.waitLocked(ctx); err != nil {
			return err
		}
	}
	return nil
}

// pauseAtStart parks a worker that is already over-rank when it begins: a
// shrink can land before a worker produces its first page — before
// mergeEngine.maybeQuiesce ever runs — and without this gate that park
// would be silent. It is reported exactly like a mid-merge pause
// (suspension counted, KindSuspend/KindResume emitted), so suspension stats
// and event-driven budget restores observe every quiesced worker.
func (c *crew) pauseAtStart(we *Env, st *SortStats, id int) error {
	if !c.paused(id) {
		return nil
	}
	we.emit(st, trace.KindSuspend, c.minNeed, 0, "")
	if err := c.waitActive(we.Ctx, id); err != nil {
		return err
	}
	we.emit(st, trace.KindResume, c.minNeed, 0, "")
	return nil
}

// leave retires a finished worker: its remaining grant returns to the
// parent and the survivors' shares grow at their next page boundary. A
// paused worker whose rank improves below `active` resumes — this is what
// guarantees progress when the budget can only sustain a subset of the
// crew: the rank-0 worker always has a full-or-shared target ≥ the broker
// floor, finishes, and hands its slot down.
func (c *crew) leave(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.live[id] {
		return
	}
	c.live[id] = false
	c.nlive--
	if g := c.granted[id]; g > 0 {
		c.granted[id] = 0
		c.total -= g
		c.parent.Yield(g)
	}
	c.wakeLocked()
}

// maxGranted reports the high-water mark of pages held by the whole crew.
func (c *crew) maxGranted() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxTot
}

// workerEnv derives worker id's execution environment: shared input, store,
// meter, tracer and context; a private broker view with its pause hooks; and
// the operation-wide step counter shared so (Worker, Step) pairs stay
// unique.
func (c *crew) workerEnv(e *Env, id int) *Env {
	we := &Env{
		In:      e.In,
		Store:   e.Store,
		Mem:     &workerShare{c: c, id: id},
		Meter:   e.Meter,
		Ctx:     e.Ctx,
		Now:     e.Now,
		Tracer:  e.Tracer,
		Recycle: e.Recycle,
		Worker:  id + 1,
		stepFn:  func() int { return int(c.steps.Add(1)) },
	}
	we.ShouldPause = func() bool { return c.paused(id) }
	we.WaitResume = func() error { return c.waitActive(we.Ctx, id) }
	return we
}

// run executes body on one goroutine per crew member, each against its own
// Env view and stats, and waits for all of them. A worker leaves the crew
// as soon as its body returns, so its grant passes to the survivors. The
// workers' counters and the crew's grant high-water mark fold into st; the
// result is the first error in worker-id order.
func (c *crew) run(e *Env, st *SortStats, body func(we *Env, wst *SortStats, id int) error) error {
	errs := make([]error, len(c.live))
	wsts := make([]SortStats, len(c.live))
	var wg sync.WaitGroup
	for id := range c.live {
		wg.Add(1)
		//masortlint:allow simdeterminism -- real-engine worker crew, unreachable from the simulator (sim never sets cfg.Workers > 1); callers collect worker outputs in worker-id order, independent of scheduling
		go func() {
			defer wg.Done()
			errs[id] = body(c.workerEnv(e, id), &wsts[id], id)
			c.leave(id)
		}()
	}
	wg.Wait()
	for i := range wsts {
		addWorkerStats(st, &wsts[i])
	}
	st.MaxGranted = max(st.MaxGranted, c.maxGranted())
	return cmp.Or(errs...)
}

// workerShare is worker id's private view of the crew's Broker: Target is
// the worker's deterministic share, Acquire clamps to it, and waits park on
// the crew condition (woken by siblings and forwarded budget changes).
//
// seen is the crew's wakeup count when the worker last looked at its
// share or grant. WaitChange returns at once if a wakeup came after that:
// a worker that found no pages and then waits must not miss a sibling
// leaving in between, because no later change may ever come.
type workerShare struct {
	c    *crew
	id   int
	seen uint64
}

func (w *workerShare) Granted() int {
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	w.seen = w.c.gen
	return w.c.granted[w.id]
}

func (w *workerShare) Target() int {
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	w.seen = w.c.gen
	return w.c.shareLocked(w.id)
}

func (w *workerShare) Acquire(n int) int {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	w.seen = c.gen
	room := c.shareLocked(w.id) - c.granted[w.id]
	if n > room {
		n = room
	}
	if n <= 0 {
		return 0
	}
	got := c.parent.Acquire(n)
	if got > 0 {
		c.granted[w.id] += got
		c.total += got
		if c.total > c.maxTot {
			c.maxTot = c.total
		}
		c.wakeLocked()
	}
	return got
}

func (w *workerShare) Yield(n int) {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if n > c.granted[w.id] {
		n = c.granted[w.id]
	}
	if n <= 0 {
		return
	}
	c.granted[w.id] -= n
	c.total -= n
	c.parent.Yield(n)
	c.wakeLocked()
}

func (w *workerShare) Pressure() int {
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	w.seen = w.c.gen
	if p := w.c.granted[w.id] - w.c.shareLocked(w.id); p > 0 {
		return p
	}
	return 0
}

func (w *workerShare) WaitTarget(ctx context.Context, n int) error {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.shareLocked(w.id) < n {
		if err := c.waitLocked(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (w *workerShare) WaitChange(ctx context.Context) error {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.gen == w.seen {
		if err := c.waitLocked(ctx); err != nil {
			return err
		}
	}
	w.seen = c.gen
	return nil
}

// lockedInput shares one Input between split workers, page at a time. The
// first error or end-of-input latches, so sibling workers wind down with
// whatever they already hold instead of racing a broken source. Each worker
// passes its own dst, so a streaming input fills worker-owned pages.
type lockedInput struct {
	mu   sync.Mutex
	in   Input
	done bool
}

func (l *lockedInput) NextPage(dst Page) (Page, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return nil, false, nil
	}
	pg, ok, err := l.in.NextPage(dst)
	if err != nil || !ok {
		l.done = true
	}
	return pg, ok, err
}

// stop makes the input read as exhausted; a failing worker calls it so its
// siblings finish their current runs promptly and the driver can clean up.
func (l *lockedInput) stop() {
	l.mu.Lock()
	l.done = true
	l.mu.Unlock()
}

// addWorkerStats folds one worker's counters into the operation stats.
// Split workers fill only the split-phase fields and merge workers only the
// merge-phase ones, so one sum serves both.
func addWorkerStats(st, w *SortStats) {
	st.TuplesIn += w.TuplesIn
	st.PagesIn += w.PagesIn
	st.Runs += w.Runs
	st.RunPagesWritten += w.RunPagesWritten
	st.MergeSteps += w.MergeSteps
	st.MergePagesRead += w.MergePagesRead
	st.MergePagesWritten += w.MergePagesWritten
	st.ExtraMergeReads += w.ExtraMergeReads
	st.Splits += w.Splits
	st.Combines += w.Combines
	st.Suspensions += w.Suspensions
}

// parallelSplit is the parallel run-generation phase: cfg.Workers goroutines
// pull pages from the shared input and run the configured split method
// against their own Env view, each producing complete runs through its own
// store append path. Run order is fixed by worker id, and per-partition
// sorting preserves the adaptation behavior: every worker honors shrink and
// grow at its page boundaries through its crew share.
func parallelSplit(e *Env, cfg SortConfig, st *SortStats) ([]*runInfo, error) {
	e.setPhase("split")
	w := cfg.Workers
	// Floor each worker's share at MinPages — and at BlockPages for
	// replacement selection, which needs the full block as output buffer.
	// Both split methods degrade gracefully to 1 page, but run length
	// scales with a worker's share, so admitting workers on slivers of a
	// tiny budget multiplies the run count (and per-run store resources,
	// e.g. FileStore's one fd per live run). Below the floor the crew
	// shrinks toward serial run generation instead.
	minNeed := cfg.MinPages
	if cfg.Method == Repl && cfg.BlockPages > minNeed {
		minNeed = cfg.BlockPages
	}
	c := newCrew(e, w, minNeed)
	defer c.close(e)
	in := &lockedInput{in: e.In}
	outs := make([][]*runInfo, w)
	err := c.run(e, st, func(we *Env, wst *SortStats, id int) (err error) {
		we.In = in
		if cfg.Method == Quick {
			outs[id], err = quickSplit(we, cfg, wst)
		} else {
			outs[id], err = replSplit(we, cfg, wst)
		}
		if err != nil {
			in.stop()
		}
		return err
	})
	// Runs in worker-id order; a failed worker's finished runs are returned
	// too, so the caller frees them.
	var runs []*runInfo
	for _, o := range outs {
		runs = append(runs, o...)
	}
	return runs, err
}

// parallelMerge partitions the merge by key range across w goroutines: the
// coordinator cuts every run into key-range clones (partition), each worker
// merges its clones into one output segment, and the segments concatenate
// in key order — the output sequence is value-identical to a serial merge.
// The runs are consumed, on success and on abort alike.
func parallelMerge(e *Env, cfg SortConfig, st *SortStats, runs []*runInfo, w int) ([]*runInfo, error) {
	parts, err := partition(e, st, runs, w)
	// The probes' page goes back before the workers share the budget.
	e.yieldAll()
	if err != nil {
		freeRuns(e, runs)
		return nil, err
	}
	c := newCrew(e, w, cfg.MinPages)
	defer c.close(e)
	outs := make([]*runInfo, w)
	err = c.run(e, st, func(we *Env, wst *SortStats, id int) (err error) {
		if err = c.pauseAtStart(we, wst, id); err == nil {
			outs[id], err = workerMerge(we, cfg, wst, parts[id])
		}
		return err
	})
	segs := slices.DeleteFunc(outs, func(r *runInfo) bool { return r == nil })
	// The workers only borrowed the input runs through shared clones; the
	// coordinator owns and frees them — exactly once, after every worker is
	// done (success or abort).
	freeRuns(e, runs)
	if err != nil {
		freeRuns(e, segs)
		return nil, err
	}
	return segs, nil
}

// partition picks w-1 splitter keys (pickCuts) and returns, for each worker,
// a key-range clone of every run that holds keys in the worker's range.
func partition(e *Env, st *SortStats, runs []*runInfo, w int) ([][]*runInfo, error) {
	cuts, err := pickCuts(e, st, runs, w)
	if err != nil {
		return nil, err
	}
	parts := make([][]*runInfo, w)
	for id := range parts {
		hasLo, hasHi := id > 0, id < len(cuts)
		var lo, hi Key
		if hasLo {
			lo = cuts[id-1]
		}
		if hasHi {
			hi = cuts[id]
		}
		if hasLo && hasHi && lo >= hi {
			continue // duplicate splitter keys: the range is empty
		}
		for _, r := range runs {
			c, err := cloneRange(e, st, r, lo, hasLo, hi, hasHi)
			if err != nil {
				return nil, err
			}
			if c != nil {
				parts[id] = append(parts[id], c)
			}
		}
	}
	return parts, nil
}

// pickCuts returns w-1 splitter keys at equal cumulative-page intervals of
// the runs' sorted fences, so each worker merges about as many pages. A run
// without recorded fences stands in with estimated ones (estimateFences).
func pickCuts(e *Env, st *SortStats, runs []*runInfo, w int) ([]Key, error) {
	var fences []Key
	for _, r := range runs {
		if len(r.fences) == r.pages {
			fences = append(fences, r.fences...)
			continue
		}
		var err error
		if fences, err = r.estimateFences(e, st, w, fences); err != nil {
			return nil, err
		}
	}
	slices.Sort(fences)
	cuts := make([]Key, w-1)
	for i := 1; i < w; i++ {
		cuts[i-1] = fences[len(fences)*i/w]
	}
	return cuts, nil
}

// cloneRange builds a shared view of r's records with lo <= key < hi (each
// bound optional) for one merge partition, positioned at the first of them;
// nil when the range holds none of r's records. The first page whose fence
// is >= lo is found by binary search. The page before it may still reach
// into the range (its last keys run up to that fence), so the clone starts
// there, past the keys below lo — one page read.
func cloneRange(e *Env, st *SortStats, r *runInfo, lo Key, hasLo bool, hi Key, hasHi bool) (*runInfo, error) {
	page, pos := 0, 0
	if hasLo {
		i, err := r.searchFence(e, st, lo)
		if err != nil {
			return nil, err
		}
		page = i
		if i > 0 {
			pg, err := readPage(e, st, r.id, i-1)
			if err != nil {
				return nil, err
			}
			if j := sort.Search(len(pg), func(j int) bool { return pg[j].Key >= lo }); j < len(pg) {
				page, pos = i-1, j
			}
			e.recycle(pg)
		}
	}
	if page >= r.pages {
		return nil, nil
	}
	if hasHi && pos == 0 {
		// Everything from the start page on is >= its fence, and everything
		// before it is < lo: a fence >= hi leaves the partition nothing.
		f, err := r.fence(e, st, page)
		if err != nil {
			return nil, err
		}
		if f >= hi {
			return nil, nil
		}
	}
	return &runInfo{
		id:      r.id,
		pages:   r.pages,
		page:    page,
		pos:     pos,
		shared:  true,
		bounded: hasHi,
		hi:      hi,
	}, nil
}

// readPage reads page i of run id for the coordinator's fence probes and
// clone seeks. It reads under a granted page: like ensureSlot it takes one
// from the broker, and while none can be granted it waits for the budget to
// change. The caller yields the page once partitioning is done.
func readPage(e *Env, st *SortStats, id RunID, i int) (Page, error) {
	for e.Mem.Granted() < 1 && e.Mem.Acquire(1) < 1 {
		if err := e.Mem.WaitChange(e.Ctx); err != nil {
			return nil, err
		}
	}
	pg, err := e.Store.ReadAsync(id, i).Wait()
	if err != nil {
		return nil, err
	}
	st.MergePagesRead++
	return pg, nil
}

// materialize copies a single bounded clone into a fresh run with an
// ordinary (trivially 1-way) merge step, so the partition's output is a
// real run the coordinator owns — a clone cannot be returned directly.
func (m *mergeEngine) materialize(clone *runInfo) (*runInfo, error) {
	out, err := m.newOutRun()
	if err != nil {
		_ = m.freeRun(clone)
		return nil, err
	}
	stp := &mergeStep{inputs: []*runInfo{clone}, out: out}
	out.producer = stp
	m.startStep(stp)
	if err := m.executeStep(stp); err != nil {
		m.releaseStep(stp)
		return nil, err
	}
	return out, nil
}

// workerMerge merges one worker's key-range clones into its output segment,
// with the full adaptation machinery (suspension, paging, dynamic
// splitting, pause/resume, cancellation) running against the worker's crew
// share. Returns nil for an empty partition.
func workerMerge(we *Env, cfg SortConfig, st *SortStats, clones []*runInfo) (*runInfo, error) {
	if len(clones) == 0 {
		return nil, nil
	}
	m := &mergeEngine{e: we, cfg: cfg, st: st}
	out, err := m.mergeRuns(clones)
	if err != nil {
		return nil, err
	}
	if out.shared {
		// A single-clone partition under a static plan passes the clone
		// through unchanged; copy its range into a run of our own.
		return m.materialize(out)
	}
	return out, nil
}
