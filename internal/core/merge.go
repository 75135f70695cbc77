package core

import (
	"errors"
	"fmt"
)

// mergeStep is one node of the merge plan. Under dynamic splitting the plan
// is a chain: the root merges everything; when memory shrinks, a
// preliminary sub-step is split off and becomes active; when memory grows,
// the active step's parent "drains" the sub-step's output and then absorbs
// its inputs (paper §3.2.3, Figures 2 and 3).
type mergeStep struct {
	inputs []*runInfo
	out    *runInfo
	parent *mergeStep

	// id numbers the step within the operation (assigned by startStep) for
	// event correlation; steps interleave under dynamic splitting.
	id int

	// drainOf marks combine-in-progress: this step must fully consume
	// drainOf.out before absorbing drainOf's inputs.
	drainOf *mergeStep
}

// need returns the step's buffer requirement: one page per input run plus
// one output page.
func (s *mergeStep) need() int { return len(s.inputs) + 1 }

// stepResult tells the engine why page production stopped.
type stepResult int

const (
	pageProduced stepResult = iota // one output page flushed; keep going
	stepDone                       // all inputs exhausted; step complete
	drainEmpty                     // the drained run is empty: absorb now
	needAdapt                      // memory shortage mid-page: adapt first
)

// mergeEngine executes the merge phase of one sort against an Env.
type mergeEngine struct {
	e   *Env
	cfg SortConfig
	st  *SortStats

	active  *mergeStep
	curStep *mergeStep // step whose buffers the reclaimer may take

	outBuf   Page    // output page under construction
	outSent  [1]Page // one-page batch handed to Append, reusable once outTok completes
	outFree  []Page  // recycled page buffers for the next outBuf
	outTok   Token
	mruClock int64
	cmp      int64         // comparison charges accumulated between flushes
	reads    []pendingRead // load's in-flight reads, reused across calls

	// tree selects over the active step's runs. It persists across output
	// pages — rebuilding it per page costs Θ(fan-in) comparisons per page —
	// and is invalidated only when the step's run set changes (split,
	// combine, absorb) or a run blocks mid-advance.
	tree      runTree
	treeStep  *mergeStep // step tree was built for
	treeValid bool
}

// invalidateTree forces the next produceOnePage to rebuild the tree.
func (m *mergeEngine) invalidateTree() { m.treeValid = false }

// mergeRuns merges runs into a single result run under the configured
// merging strategy and adaptation strategy.
func (m *mergeEngine) mergeRuns(runs []*runInfo) (*runInfo, error) {
	m.e.setReclaimFn(m.reclaim)
	defer m.e.setReclaimFn(nil)
	if m.cfg.Adapt == DynSplit {
		return m.runDynamic(runs)
	}
	return m.runStatic(runs)
}

// reclaim is invoked synchronously by the buffer manager when a competing
// request arrives: clean input buffers (and any unpinned surplus) are given
// up immediately. The run cursors live in workspace records, so dropping a
// buffer never loses the merge position — only its later re-read costs I/O.
func (m *mergeEngine) reclaim(need int) int {
	st := m.active
	if st == nil {
		st = m.curStep
	}
	yielded := 0
	held := 1 // never give up the output buffer
	if st != nil {
		held = m.heldPages(st)
	}
	if free := m.e.Mem.Granted() - held; free > 0 {
		y := min(free, need)
		m.e.Mem.Yield(y)
		yielded += y
	}
	for yielded < need && st != nil {
		before := m.heldPages(st)
		if !m.evictMRU(st) {
			break
		}
		freed := before - m.heldPages(st)
		y := min(freed, m.e.Mem.Granted())
		if y <= 0 {
			break
		}
		m.e.Mem.Yield(y)
		yielded += y
	}
	return yielded
}

func (m *mergeEngine) newOutRun() (*runInfo, error) {
	id, err := m.e.Store.Create()
	if err != nil {
		return nil, err
	}
	return &runInfo{id: id}, nil
}

// releaseStep abandons a merge after an error: the in-flight write is
// awaited, every run still owned by the step chain (inputs, outputs, and a
// combine-in-progress sub-step's runs) is freed, and all granted pages are
// handed back. This is the no-leak guarantee for canceled operations.
func (m *mergeEngine) releaseStep(st *mergeStep) {
	_ = m.waitOut()
	m.outBuf, m.outSent[0], m.outFree = nil, nil, nil
	m.invalidateTree()
	seen := map[*mergeStep]bool{}
	var visit func(*mergeStep)
	visit = func(s *mergeStep) {
		if s == nil || seen[s] {
			return
		}
		seen[s] = true
		for _, r := range s.inputs {
			_ = m.freeRun(r)
		}
		if s.out != nil {
			_ = m.freeRun(s.out)
		}
		visit(s.parent)
		visit(s.drainOf)
	}
	visit(st)
	m.e.yieldAll()
}

// ---- static plans (suspension & paging) ----

// runStatic implements static splitting (paper §2.2): the fan-in of each
// step is fixed when the step starts, from the memory available then; a
// started step executes to completion, adapting only through suspension or
// paging. Excess memory beyond the step's requirement goes unused.
func (m *mergeEngine) runStatic(runs []*runInfo) (*runInfo, error) {
	pool := append([]*runInfo(nil), runs...)
	for len(pool) > 1 {
		// Step boundary: cancellation is observed here.
		if err := m.e.ctxErr(); err != nil {
			freeRuns(m.e, pool)
			m.e.yieldAll()
			return nil, err
		}
		// Unpinned surplus between steps is released immediately.
		if p := m.e.Mem.Pressure(); p > 0 {
			m.e.Mem.Yield(min(p, m.e.Mem.Granted()))
		}
		t := max(m.e.Mem.Target(), m.cfg.MinPages)
		k := firstStepFanIn(len(pool), t, m.cfg.Merge)
		chosen, rest := pickRuns(pool, k, !m.cfg.NoShortestFirst)
		out, err := m.newOutRun()
		if err != nil {
			freeRuns(m.e, pool)
			m.e.yieldAll()
			return nil, err
		}
		st := &mergeStep{inputs: chosen, out: out}
		out.producer = st
		m.startStep(st)
		if err := m.executeStep(st); err != nil {
			m.releaseStep(st)
			freeRuns(m.e, rest)
			return nil, err
		}
		pool = append(rest, out)
	}
	return pool[0], nil
}

// executeStep runs one static merge step to completion.
func (m *mergeEngine) executeStep(st *mergeStep) error {
	m.curStep = st
	defer func() { m.curStep = nil }()
	for {
		// Output-page boundary: cancellation is observed here.
		if err := m.e.ctxErr(); err != nil {
			return err
		}
		if err := m.maybeQuiesce(st); err != nil {
			return err
		}
		if err := m.adaptStatic(st); err != nil {
			return err
		}
		res, err := m.produceOnePage(st)
		if err != nil {
			return err
		}
		switch res {
		case stepDone:
			return m.finishStep(st)
		case drainEmpty:
			return errors.New("core: drain result in static plan")
		case needAdapt:
			if err := m.adaptStatic(st); err != nil {
				return err
			}
			if err := m.ensureProgress(st); err != nil {
				return err
			}
		}
	}
}

// adaptStatic handles memory fluctuation between output pages for the
// suspension and paging strategies.
func (m *mergeEngine) adaptStatic(st *mergeStep) error {
	m.rebalance(st)
	switch m.cfg.Adapt {
	case Suspend:
		need := st.need()
		if m.e.Mem.Target() >= need {
			return nil
		}
		// Suspend: flush the partial output page, drop every buffer, hand
		// all pages back, and wait for the memory to return.
		if err := m.flushOut(st); err != nil {
			return err
		}
		if err := m.waitOut(); err != nil {
			return err
		}
		for _, r := range st.inputs {
			r.drop(m.e)
		}
		m.e.Mem.Yield(m.e.Mem.Granted())
		m.st.Suspensions++
		m.e.emit(EvSuspend, need, "")
		// Cancellation interrupts the suspension wait: a canceled sort must
		// not sleep until the budget happens to be restored.
		if err := m.e.waitTarget(need); err != nil {
			return err
		}
		m.e.Mem.Acquire(need - m.e.Mem.Granted())
		m.e.emit(EvResume, need, "")
		// Resume: refetch all input buffers together (one elevator sweep).
		return m.batchLoad(st)
	case Paging:
		// Shrink residency to the budget; page faults handle the rest.
		budget := m.pagingBudget(st)
		for m.heldPages(st) > budget {
			if !m.evictMRU(st) {
				break
			}
		}
		m.rebalance(st)
		return nil
	}
	return nil
}

// pagingBudget is how many pages the paging strategy may keep resident.
func (m *mergeEngine) pagingBudget(st *mergeStep) int {
	b := max(m.e.Mem.Target(), m.cfg.MinPages)
	return min(b, st.need())
}

// evictMRU drops the most recently used resident input buffer (the paper's
// MRU replacement policy for merge paging). Returns false if nothing is
// resident.
func (m *mergeEngine) evictMRU(st *mergeStep) bool {
	var victim *runInfo
	for _, r := range st.inputs {
		if r.loaded() == 0 {
			continue
		}
		if victim == nil || r.lastUsed > victim.lastUsed {
			victim = r
		}
	}
	if victim == nil {
		return false
	}
	victim.drop(m.e)
	return true
}

// batchLoad issues reads for every input that needs its current page and
// waits for all of them (suspension's batched refetch).
func (m *mergeEngine) batchLoad(st *mergeStep) error {
	type pend struct {
		r   *runInfo
		tok PageToken
	}
	var pends []pend
	for _, r := range st.inputs {
		if !r.needsLoad() {
			continue
		}
		if !m.ensureSlot(st) {
			break // shortage right after resume: the next adapt round retries
		}
		m.noteRead(r, r.page)
		pends = append(pends, pend{r, m.e.Store.ReadAsync(r.id, r.page)})
	}
	for _, p := range pends {
		pg, err := p.tok.Wait()
		if err != nil {
			return err
		}
		p.r.bufs = append(p.r.bufs, pg)
	}
	return nil
}

// ---- dynamic splitting ----

// runDynamic implements the paper's dynamic splitting strategy. The merge
// phase starts with a single step combining all runs; adaptation splits and
// combines steps as memory fluctuates.
func (m *mergeEngine) runDynamic(runs []*runInfo) (*runInfo, error) {
	out, err := m.newOutRun()
	if err != nil {
		freeRuns(m.e, runs)
		m.e.yieldAll()
		return nil, err
	}
	root := &mergeStep{inputs: append([]*runInfo(nil), runs...), out: out}
	out.producer = root
	m.startStep(root)
	m.active = root
	defer func() { m.active = nil }()
	for {
		// Output-page boundary: cancellation is observed here. The whole
		// step chain (splits in progress included) is released on abort.
		if err := m.e.ctxErr(); err != nil {
			m.releaseStep(m.active)
			return nil, err
		}
		if err := m.maybeQuiesce(m.active); err != nil {
			m.releaseStep(m.active)
			return nil, err
		}
		if err := m.adaptDynamic(); err != nil {
			m.releaseStep(m.active)
			return nil, err
		}
		st := m.active
		res, err := m.produceOnePage(st)
		if err != nil {
			m.releaseStep(m.active)
			return nil, err
		}
		switch res {
		case stepDone:
			if err := m.finishStep(st); err != nil {
				m.releaseStep(m.active)
				return nil, err
			}
			if st.parent == nil {
				return st.out, nil
			}
			m.active = st.parent
		case drainEmpty:
			if err := m.absorb(st); err != nil {
				m.releaseStep(m.active)
				return nil, err
			}
		case needAdapt:
			if err := m.adaptDynamic(); err != nil {
				m.releaseStep(m.active)
				return nil, err
			}
			if err := m.ensureProgress(m.active); err != nil {
				m.releaseStep(m.active)
				return nil, err
			}
		}
	}
}

// adaptDynamic enforces the dynamic-splitting invariant (active step fits in
// the current target), splits on shrink, and initiates combining on growth.
func (m *mergeEngine) adaptDynamic() error {
	st := m.active
	m.rebalance(st)
	target := max(m.e.Mem.Target(), m.cfg.MinPages)
	if st.drainOf != nil {
		if st.need() > target {
			// Shrunk mid-combine: abort the drain and fall back to the
			// preliminary step (its state is untouched — it simply resumes).
			prelim := st.drainOf
			st.drainOf = nil
			if err := m.waitOut(); err != nil {
				return err
			}
			m.dropStepBufs(st)
			m.active = prelim
			m.st.Combines-- // the combine did not happen after all
			m.e.emit(EvCombineAbort, 0, "")
			return m.adaptDynamic()
		}
		return nil
	}
	if st.need() > target {
		return m.splitActive(target)
	}
	// Memory grew: combine the active step into its parent if everything
	// fits (paper Figure 3 — drain the partial output first).
	if !m.cfg.NoCombine && st.parent != nil {
		combinedNeed := len(st.parent.inputs) - 1 + len(st.inputs) + 1
		if combinedNeed <= target {
			if err := m.waitOut(); err != nil {
				return err
			}
			m.dropStepBufs(st)
			st.parent.drainOf = st
			m.active = st.parent
			m.st.Combines++
			m.e.emit(EvCombineStart, combinedNeed, "")
			m.rebalance(st.parent)
		}
	}
	return nil
}

// splitActive splits the active step until it fits within target pages
// (paper Figure 2). The sub-step takes the k shortest remaining inputs,
// where k follows the configured merging strategy.
func (m *mergeEngine) splitActive(target int) error {
	st := m.active
	if err := m.waitOut(); err != nil {
		return err
	}
	for st.need() > target {
		n := len(st.inputs)
		k := firstStepFanIn(n, target, m.cfg.Merge)
		if k >= n {
			break // cannot shrink further (n == 2 and target == MinPages)
		}
		chosen, rest := pickRuns(st.inputs, k, !m.cfg.NoShortestFirst)
		m.dropStepBufs(st)
		out, err := m.newOutRun()
		if err != nil {
			return err
		}
		sub := &mergeStep{inputs: chosen, out: out, parent: st}
		out.producer = sub
		st.inputs = append([]*runInfo{out}, rest...)
		st = sub
		m.st.Splits++
		m.e.emit(EvSplitStep, len(chosen), "")
		m.startStep(sub)
	}
	m.invalidateTree() // run sets changed on every step along the chain
	m.active = st
	m.rebalance(st)
	return nil
}

// absorb completes a combine: the drained sub-step's inputs replace its
// (fully consumed) output run in the parent.
func (m *mergeEngine) absorb(st *mergeStep) error {
	prelim := st.drainOf
	if prelim == nil {
		return errors.New("core: absorb without drain")
	}
	st.drainOf = nil
	drained := prelim.out
	if !drained.exhausted() {
		return fmt.Errorf("core: absorbing non-exhausted run %v", drained)
	}
	inputs := st.inputs[:0:0]
	for _, r := range st.inputs {
		if r != drained {
			inputs = append(inputs, r)
		}
	}
	st.inputs = append(inputs, prelim.inputs...)
	m.invalidateTree() // the absorbed runs must enter the tree
	m.e.emit(EvCombineDone, len(st.inputs), "")
	return m.freeRun(drained)
}

// ---- shared execution ----

// heldPages counts resident buffers: the output page plus loaded inputs.
func (m *mergeEngine) heldPages(st *mergeStep) int {
	h := 1
	for _, r := range st.inputs {
		h += r.loaded()
	}
	return h
}

// ensureProgress is called after an adaptation pass when page production
// still could not obtain a buffer. With a single-operator pool this cannot
// happen (entitlement implies availability); with a shared pool the
// operator may be entitled to another page while a sibling still holds it,
// so we park until the pool changes instead of spinning. The park is
// interrupted by cancellation, whose error is returned.
func (m *mergeEngine) ensureProgress(st *mergeStep) error {
	if st == nil {
		return nil
	}
	held := m.heldPages(st)
	g := m.e.Mem.Granted()
	if g > held {
		return nil // an unpinned page is already granted; retry will use it
	}
	if m.e.Mem.Target() <= held {
		return nil // not entitled to more: the adaptation strategy handles it
	}
	if m.e.Mem.Acquire(held+1-g) > 0 {
		return nil
	}
	return m.e.waitChange()
}

// shedReadAhead drops up to n tail read-ahead pages (never a run's current
// page), freeing grant room. They will be re-read later — counted as extra
// merge I/O. Returns the number of pages freed.
func (m *mergeEngine) shedReadAhead(st *mergeStep, n int) int {
	freed := 0
	for freed < n {
		var victim *runInfo
		for _, r := range st.inputs {
			if r.loaded() > 1 && (victim == nil || r.loaded() > victim.loaded()) {
				victim = r
			}
		}
		if victim == nil {
			break
		}
		last := len(victim.bufs) - 1
		m.e.recycle(victim.bufs[last])
		victim.bufs = victim.bufs[:last]
		freed++
	}
	return freed
}

// rebalance releases unpinned granted pages when the broker wants them back.
// Merge-phase releases are immediate (paper: merge delays < 1 ms) since
// input buffers are clean; read-ahead buffers beyond each run's current
// page are shed first when needed.
func (m *mergeEngine) rebalance(st *mergeStep) {
	p := m.e.Mem.Pressure()
	if p <= 0 {
		return
	}
	free := m.e.Mem.Granted() - m.heldPages(st)
	if free > 0 {
		y := min(free, p)
		m.e.Mem.Yield(y)
		p -= y
	}
	if p > 0 {
		if freed := m.shedReadAhead(st, p); freed > 0 {
			m.e.Mem.Yield(min(freed, m.e.Mem.Granted()))
		}
	}
}

// dropStepBufs releases every resident input buffer of st (used when the
// step is deactivated; reloading later is the step-switch overhead the
// paper describes).
func (m *mergeEngine) dropStepBufs(st *mergeStep) {
	for _, r := range st.inputs {
		r.drop(m.e)
	}
	m.rebalance(st)
}

// ensureSlot makes room for loading one more page. Under paging it evicts
// the MRU buffer when at budget; otherwise it acquires from the broker and
// reports false if the target does not allow another page.
func (m *mergeEngine) ensureSlot(st *mergeStep) bool {
	held := m.heldPages(st)
	if m.cfg.Adapt == Paging {
		if held >= m.pagingBudget(st) {
			if !m.evictMRU(st) {
				return false
			}
			held = m.heldPages(st)
		}
	}
	g := m.e.Mem.Granted()
	if g >= held+1 {
		return true
	}
	m.e.Mem.Acquire(held + 1 - g)
	if m.e.Mem.Granted() >= held+1 {
		return true
	}
	// The grant cannot grow (target shrank under our buffers): make room by
	// shedding read-ahead pages loaded when memory was plentiful.
	if m.shedReadAhead(st, held+1-m.e.Mem.Granted()) > 0 {
		return m.e.Mem.Granted() >= m.heldPages(st)+1
	}
	return false
}

// readAhead returns how many pages to load per input at a time. The
// adaptive-block-I/O extension (paper §7 future work) spends surplus pages
// on read-ahead; classic behavior is one page.
func (m *mergeEngine) readAhead(st *mergeStep) int {
	if !m.cfg.AdaptiveBlockIO || m.cfg.Adapt == Paging {
		return 1
	}
	surplus := m.e.Mem.Target() - st.need()
	if surplus <= 0 {
		return 1
	}
	extra := surplus / max(len(st.inputs), 1)
	return 1 + min(extra, 7)
}

func (m *mergeEngine) noteRead(r *runInfo, page int) {
	m.st.MergePagesRead++
	if page < r.hiLoaded {
		m.st.ExtraMergeReads++
	} else {
		r.hiLoaded = page + 1
	}
}

// pendingRead is one page read load has issued: page idx of the run.
type pendingRead struct {
	idx int
	tok PageToken
}

// load brings up to `ahead` consecutive pages of r into memory. Returns
// ok=false if no buffer slot could be obtained for the first page. A fetched
// page is discarded (I/O cost still paid) if the reclaimer took the buffers
// underneath it while the read was in flight; the outer loop then retries.
func (m *mergeEngine) load(st *mergeStep, r *runInfo, ahead int) (bool, error) {
	for r.needsLoad() {
		n := r.pages - r.page
		if n > ahead {
			n = ahead
		}
		toks := m.reads[:0]
		for i := 0; i < n; i++ {
			if !m.ensureSlot(st) {
				if len(toks) > 0 {
					break // partial read-ahead is fine
				}
				return false, nil
			}
			idx := r.page + len(r.bufs) + len(toks)
			m.noteRead(r, idx)
			toks = append(toks, pendingRead{idx, m.e.Store.ReadAsync(r.id, idx)})
		}
		m.reads = toks
		for _, pr := range toks {
			pg, err := pr.tok.Wait()
			if err != nil {
				return false, err
			}
			if pr.idx == r.page+len(r.bufs) {
				r.bufs = append(r.bufs, pg)
			} else {
				m.e.recycle(pg)
			}
		}
		clear(toks) // drop the completed tokens
	}
	return true, nil
}

// appendOut appends one record to the output page, reusing a recycled
// page buffer when one is available (steady-state merging allocates no new
// output pages: two buffers rotate through fill → in-flight → free).
func (m *mergeEngine) appendOut(rec Record) {
	if m.outBuf == nil {
		if n := len(m.outFree); n > 0 {
			m.outBuf = m.outFree[n-1]
			m.outFree = m.outFree[:n-1]
		} else {
			m.outBuf = make(Page, 0, m.cfg.PageRecords)
		}
	}
	m.outBuf = append(m.outBuf, rec)
}

// flushOut appends the (possibly partial) output buffer to the step's
// output run asynchronously, waiting for the previous flush first.
func (m *mergeEngine) flushOut(st *mergeStep) error {
	if len(m.outBuf) == 0 {
		return nil
	}
	pg := m.outBuf
	m.outBuf = nil
	if err := m.waitOut(); err != nil {
		return err
	}
	m.outSent[0] = pg
	tok, err := m.e.Store.Append(st.out.id, m.outSent[:])
	if err != nil {
		m.outSent[0] = nil
		return err
	}
	m.outTok = tok
	st.out.pages++
	st.out.tuples += len(pg)
	m.st.MergePagesWritten++
	m.e.charge(OpCopyTuple, int64(len(pg)))
	m.e.charge(OpCompare, m.cmp)
	m.cmp = 0
	return nil
}

// waitOut waits for the in-flight output write. Once the token completes
// every store has taken its own copy of the bytes (RunStore contract), so
// the flushed page buffer is recycled for the next output page.
func (m *mergeEngine) waitOut() error {
	if m.outTok == nil {
		return nil
	}
	err := m.outTok.Wait()
	m.outTok = nil
	if m.outSent[0] != nil {
		if err == nil {
			m.outFree = append(m.outFree, m.outSent[0][:0])
		}
		m.outSent[0] = nil
	}
	return err
}

// finishStep completes a step: waits for the last write, frees the consumed
// input runs and marks the output complete.
func (m *mergeEngine) finishStep(st *mergeStep) error {
	if err := m.flushOut(st); err != nil {
		return err
	}
	if err := m.waitOut(); err != nil {
		return err
	}
	for _, r := range st.inputs {
		if r.producer != nil {
			return fmt.Errorf("core: finishing step with live producer on %v", r)
		}
		if err := m.freeRun(r); err != nil {
			return err
		}
	}
	st.out.producer = nil
	m.invalidateTree()
	m.st.MergeSteps++
	m.e.emitStep(EvStepDone, len(st.inputs), st.id, "")
	if g := m.e.Mem.Granted(); g > m.st.MaxGranted {
		m.st.MaxGranted = g
	}
	return nil
}

// startStep assigns the step its operation-wide id and announces it. The
// fan-in reported here is the step's initial one; under dynamic splitting
// it may shrink before EvStepDone reports the final fan-in.
func (m *mergeEngine) startStep(st *mergeStep) {
	st.id = m.e.nextStep()
	m.e.emitStep(EvStepStart, len(st.inputs), st.id, "")
}

func (m *mergeEngine) freeRun(r *runInfo) error {
	if r.freed {
		return nil
	}
	r.freed = true
	r.drop(m.e)
	if r.shared {
		// A key-range clone: the underlying run is owned by the parallel
		// merge coordinator, which frees it once every worker is done.
		return nil
	}
	return m.e.Store.Free(r.id)
}

// maybeQuiesce parks the engine when the parallel crew ordered this worker
// to pause: a Pool/Budget shrink left the worker without a budget share, so
// it must quiesce deterministically at the output-page boundary rather than
// race its siblings for pages. The partial output page is flushed, every
// input buffer of the current step is dropped and the whole grant is handed
// back before parking; the pause is counted as a suspension. Serial
// operations (and the simulator) have no pause hook and return immediately.
func (m *mergeEngine) maybeQuiesce(st *mergeStep) error {
	if m.e.ShouldPause == nil || !m.e.ShouldPause() {
		return nil
	}
	if err := m.flushOut(st); err != nil {
		return err
	}
	if err := m.waitOut(); err != nil {
		return err
	}
	for _, r := range st.inputs {
		r.drop(m.e)
	}
	m.invalidateTree()
	m.e.yieldAll()
	m.st.Suspensions++
	m.e.emit(EvSuspend, st.need(), "")
	if err := m.e.WaitResume(); err != nil {
		return err
	}
	m.e.emit(EvResume, st.need(), "")
	return nil
}

// runTree is the selection tree over a merge's input runs (or one side of
// a join): leaf i holds runs[i]'s workspace record. The record's key is
// cached in the tree, so advancing a run replays one leaf-to-root path of
// 16-byte nodes, and payloads are read only to break key ties.
type runTree struct {
	selTree
	runs []*runInfo
}

// reset empties the tree over runs; add the runs with a valid workspace,
// then build.
func (h *runTree) reset(runs []*runInfo, cmp *int64) {
	h.runs = append(h.runs[:0], runs...)
	h.cmp = cmp
	h.selTree.reset(len(runs))
}

// add places runs[i]'s workspace record.
func (h *runTree) add(i int) { h.place(i, 0, h.runs[i].ws) }

// min returns the run holding the smallest workspace record, or nil when no
// run is in the tree.
func (h *runTree) min() *runInfo {
	if h.empty() {
		return nil
	}
	return h.runs[h.top().leaf()]
}

// replayMin replays the min run's leaf after it advanced to a new
// workspace record.
func (h *runTree) replayMin() {
	leaf := h.top().leaf()
	h.set(leaf, 0, h.runs[leaf].ws)
}

// removeMin vacates the min run's leaf (the run ran dry).
func (h *runTree) removeMin() { h.vacate(h.top().leaf()) }

type advResult int

const (
	advOK      advResult = iota // workspace refilled with the next record
	advDry                      // no stored records remain (for now)
	advBlocked                  // memory shortage: cannot load the page
)

// advanceRun consumes the workspace record and refills it with the run's
// next stored record, loading its page if necessary. The workspace is
// invalidated first, so a blocked refill never duplicates records.
func (m *mergeEngine) advanceRun(st *mergeStep, r *runInfo) (advResult, error) {
	r.wsValid = false
	if r.needsLoad() {
		ok, err := m.load(st, r, m.readAhead(st))
		if err != nil {
			return 0, err
		}
		if !ok {
			return advBlocked, nil
		}
	}
	if len(r.bufs) > 0 {
		r.lastUsed = m.mruClock
		m.mruClock++
	}
	if r.refill(m.e) {
		return advOK, nil
	}
	return advDry, nil
}

// produceOnePage merges tuples from the step's inputs until one output page
// is filled and flushed. It returns early with drainEmpty when the drained
// run empties (correctness requires absorbing before emitting more) or
// needAdapt when a buffer cannot be loaded under the current memory.
//
// The selection tree persists across calls: it is rebuilt only when the
// step changed or something invalidated it. Run workspaces survive buffer
// drops (suspension, paging eviction, reclaim), so the tree stays correct
// across those events without a rebuild.
func (m *mergeEngine) produceOnePage(st *mergeStep) (stepResult, error) {
	R := m.cfg.PageRecords
	var drainRun *runInfo
	if st.drainOf != nil {
		drainRun = st.drainOf.out
	}
	t := &m.tree
	if !m.treeValid || m.treeStep != st {
		t.reset(st.inputs, &m.cmp)
		m.treeStep = st
		m.treeValid = false
		for i, r := range st.inputs {
			if !r.wsValid {
				if r.exhausted() {
					continue
				}
				res, err := m.advanceRun(st, r)
				if err != nil {
					return 0, err
				}
				if res == advBlocked {
					return needAdapt, nil
				}
				if res == advDry {
					continue
				}
			}
			t.add(i)
		}
		t.build()
		m.treeValid = true
	}
	if drainRun != nil && drainRun.exhausted() {
		return drainEmpty, nil
	}
	if t.empty() {
		m.invalidateTree()
		return stepDone, nil
	}
	for len(m.outBuf) < R && !t.empty() {
		r := t.min()
		m.appendOut(r.ws)
		res, err := m.advanceRun(st, r)
		if err != nil {
			m.invalidateTree()
			return 0, err
		}
		switch res {
		case advOK:
			t.replayMin()
		case advBlocked:
			// The min run consumed its workspace but could not refill: the
			// tree no longer reflects it. Rebuild after adaptation.
			m.invalidateTree()
			if err := m.flushOut(st); err != nil {
				return 0, err
			}
			return needAdapt, nil
		case advDry:
			t.removeMin()
			if r == drainRun {
				if err := m.flushOut(st); err != nil {
					return 0, err
				}
				return drainEmpty, nil
			}
		}
	}
	if err := m.flushOut(st); err != nil {
		return 0, err
	}
	return pageProduced, nil
}
