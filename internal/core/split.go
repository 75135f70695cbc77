package core

import (
	"errors"
	"math/bits"
	"sort"

	"github.com/memadapt/masort/trace"
)

// splitPhase runs the configured in-memory sorting method over e.In and
// produces the initial set of sorted runs (paper §2.1, §3.1). On error the
// runs produced so far are returned alongside it, so the caller can free
// them — cancellation must not leak run storage.
func splitPhase(e *Env, cfg SortConfig, st *SortStats) ([]*runInfo, error) {
	e.setPhase("split")
	if cfg.Method == Quick {
		return quickSplit(e, cfg, st)
	}
	return replSplit(e, cfg, st)
}

func countRecs(pages []Page) int {
	n := 0
	for _, p := range pages {
		n += len(p)
	}
	return n
}

// writeRun materializes recs as a brand-new run in one asynchronous append,
// waiting for durability before returning (a Quicksort run's buffers are
// only reusable once the whole run is on disk, paper footnote 1).
func writeRun(e *Env, recs []Record, pageRecords int) (*runInfo, error) {
	id, err := e.Store.Create()
	if err != nil {
		return nil, err
	}
	var pages []Page
	for len(recs) > 0 {
		n := min(pageRecords, len(recs))
		pages = append(pages, Page(recs[:n:n]))
		recs = recs[n:]
	}
	tok, err := e.Store.Append(id, pages)
	if err != nil {
		_ = e.Store.Free(id)
		return nil, err
	}
	if err := tok.Wait(); err != nil {
		_ = e.Store.Free(id)
		return nil, err
	}
	fences := make([]Key, len(pages))
	for i, p := range pages {
		fences[i] = p[0].Key
	}
	return &runInfo{id: id, pages: len(pages), tuples: countRecs(pages), fences: fences}, nil
}

// quickSplit implements the Quicksort split phase: fill all granted memory
// with input pages, sort a (key,pointer) list, write the result out as one
// run. It reacts to memory growth while filling; under pressure it must
// finish sorting and writing the current contents before freeing anything —
// the paper's explanation for Quicksort's long split-phase delays.
func quickSplit(e *Env, cfg SortConfig, st *SortStats) ([]*runInfo, error) {
	var runs []*runInfo
	inputDone := false
	for !inputDone {
		var mem []Page
		tuples := 0
		for {
			// Page-granular adaptation point: cancellation is observed here.
			if err := e.ctxErr(); err != nil {
				return runs, err
			}
			// Exploit extra memory immediately while filling (paper §3.1).
			if g := e.Mem.Target() - e.Mem.Granted(); g > 0 {
				e.Mem.Acquire(g)
			}
			if e.Mem.Granted() == 0 {
				// Entitled but the (shared) pool is empty: wait rather than
				// spin. A single-operator pool never reaches this state.
				if err := e.Mem.WaitChange(e.Ctx); err != nil {
					return runs, err
				}
				continue
			}
			if p := e.Mem.Pressure(); p > 0 {
				if len(mem) == 0 {
					// No tuples pinned: pages can be released instantly.
					e.Mem.Yield(p)
					continue
				}
				break // sort & write everything first, then satisfy the request
			}
			if len(mem) >= e.Mem.Granted() {
				break
			}
			// The run keeps its pages until it is written, so there is no
			// page to hand back for refilling.
			pg, ok, err := e.In.NextPage(nil)
			if err != nil {
				return runs, err
			}
			if !ok {
				inputDone = true
				break
			}
			mem = append(mem, pg)
			tuples += len(pg)
			st.PagesIn++
			st.TuplesIn += len(pg)
		}
		if tuples == 0 {
			continue
		}
		// Sort the (key,pointer) list.
		recs := make([]Record, 0, tuples)
		for _, p := range mem {
			recs = append(recs, p...)
		}
		e.charge(OpBuildEntry, int64(tuples))
		var cmp int64
		sort.Slice(recs, func(i, j int) bool { cmp++; return Less(recs[i], recs[j]) })
		e.charge(OpCompare, cmp)
		e.charge(OpSwapEntry, cmp/2) // pointer swaps, ~half the comparisons
		// Gather tuples through the pointers into output pages.
		e.charge(OpCopyTuple, int64(tuples))
		ri, err := writeRun(e, recs, cfg.PageRecords)
		if err != nil {
			return runs, err
		}
		runs = append(runs, ri)
		e.emit(st, trace.KindRun, ri.pages, 0, "")
		st.RunPagesWritten += ri.pages
		if g := e.Mem.Granted(); g > st.MaxGranted {
			st.MaxGranted = g
		}
		// The run is durable: release whatever is being demanded.
		if p := e.Mem.Pressure(); p > 0 {
			e.Mem.Yield(p)
		}
	}
	return runs, nil
}

// replSplit implements replacement selection with N-page block writes
// (N = cfg.BlockPages; N=1 is the paper's repl1, N=6 its repl6). Memory is
// divided into one input buffer, an N-page output block and the selection
// tree (rsTree), whose leaves are the sorted input pages. Under pressure it
// writes out just enough pages to satisfy the request —
// flushed-but-unrefilled block pages count as free, which is why blockwise
// replacement selection answers memory requests fastest (paper §5.2).
func replSplit(e *Env, cfg SortConfig, st *SortStats) ([]*runInfo, error) {
	R := cfg.PageRecords
	h := newRSTree(R)
	var runs []*runInfo
	var (
		cur       *runInfo
		curTag    int
		curLast   Record
		curOpen   bool
		outTok    Token
		inputDone bool
		inPage    Page // last input page, already copied into the tree
	)
	treePages := func() int { return PagesForTuples(h.live, R) }
	// Output block pages rotate through fill → in-flight → free: a block's
	// buffers are recycled once its write token completes (every store has
	// its own copy of the bytes by then), so steady-state emission allocates
	// no new pages.
	var inFlight, freePages []Page
	newPage := func() Page {
		if n := len(freePages); n > 0 {
			pg := freePages[n-1]
			freePages = freePages[:n-1]
			return pg
		}
		return make(Page, 0, R)
	}
	// fail abandons the split: the in-flight block write is awaited (its
	// buffers are owned by the store once Append returns, but the run must
	// be quiescent before the caller frees it) and every run produced so
	// far — including the open one — is handed back for cleanup.
	fail := func(err error) ([]*runInfo, error) {
		if outTok != nil {
			_ = outTok.Wait()
			outTok = nil
		}
		if cur != nil {
			runs = append(runs, cur)
			cur = nil
		}
		return runs, err
	}
	// The tree may occupy all granted pages; extraction of an N-page block
	// transiently frees N pages that refill from the input. This matches
	// the paper's accounting (average run length ≈ 2M − N pages; at N = M
	// the method degenerates to filling memory and writing it out, §2.1).
	effBlock := func() int {
		return min(cfg.BlockPages, max(1, e.Mem.Granted()))
	}
	capPages := func() int {
		return max(1, e.Mem.Granted())
	}
	waitOut := func() error {
		if outTok == nil {
			return nil
		}
		err := outTok.Wait()
		outTok = nil
		if err == nil {
			for _, pg := range inFlight {
				freePages = append(freePages, pg[:0])
			}
		}
		inFlight = nil
		return err
	}
	closeRun := func() error {
		if err := waitOut(); err != nil {
			return err
		}
		if cur != nil {
			runs = append(runs, cur)
			e.emit(st, trace.KindRun, cur.pages, 0, "")
			cur = nil
		}
		curTag++
		curOpen = false
		return nil
	}
	// emitBlock extracts up to maxPages pages of current-run tuples and
	// appends them to the current run; reports whether the run ended.
	emitBlock := func(maxPages int) (ended bool, err error) {
		if h.live == 0 {
			return inputDone, nil
		}
		if h.topTag() != curTag {
			return true, nil
		}
		var pages []Page
		for len(pages) < maxPages && h.topTag() == curTag {
			pg := newPage()
			for len(pg) < R && h.topTag() == curTag {
				rec := h.pop()
				pg = append(pg, rec)
				curLast = rec
				curOpen = true
			}
			pages = append(pages, pg)
			if len(pg) < R {
				break // run boundary inside the page
			}
		}
		e.charge(OpCompare, h.takeCompares())
		e.charge(OpCopyTuple, int64(countRecs(pages)))
		if cur == nil {
			id, err := e.Store.Create()
			if err != nil {
				return false, err
			}
			cur = &runInfo{id: id}
		}
		// At most one block write in flight: reuse of the output buffers
		// must wait for the previous write to land.
		if err := waitOut(); err != nil {
			return false, err
		}
		tok, err := e.Store.Append(cur.id, pages)
		if err != nil {
			return false, err
		}
		outTok = tok
		inFlight = pages
		for _, p := range pages {
			// Record the page fence before the buffer is recycled: the key is
			// copied by value, so buffer reuse after the token completes is
			// still safe.
			cur.fences = append(cur.fences, p[0].Key)
		}
		cur.pages += len(pages)
		cur.tuples += countRecs(pages)
		st.RunPagesWritten += len(pages)
		ended = (h.live == 0 && inputDone) || (h.live > 0 && h.topTag() != curTag)
		return ended, nil
	}

	for {
		// Page-granular adaptation point: cancellation is observed here.
		if err := e.ctxErr(); err != nil {
			return fail(err)
		}
		h.settle()
		e.charge(OpCopyTuple, h.takeMoved())
		if e.onSplitPage != nil {
			e.onSplitPage(h.pinned, h.live)
		}
		if g := e.Mem.Target() - e.Mem.Granted(); g > 0 {
			e.Mem.Acquire(g)
		}
		if e.Mem.Granted() == 0 && !(inputDone && h.live == 0) {
			// Entitled but the (shared) pool is empty: wait rather than spin.
			if err := e.Mem.WaitChange(e.Ctx); err != nil {
				return fail(err)
			}
			continue
		}
		if g := e.Mem.Granted(); g > st.MaxGranted {
			st.MaxGranted = g
		}
		if p := e.Mem.Pressure(); p > 0 {
			// Write out just enough pages; flushed block pages that have not
			// been refilled yet count as free slack.
			for {
				slack := capPages() - treePages()
				if slack < 0 {
					slack = 0
				}
				if p-slack <= 0 || h.live == 0 {
					break
				}
				ended, err := emitBlock(p - slack)
				if err != nil {
					return fail(err)
				}
				if ended {
					if err := closeRun(); err != nil {
						return fail(err)
					}
				}
			}
			if err := waitOut(); err != nil {
				return fail(err)
			}
			y := min(p, e.Mem.Granted())
			e.Mem.Yield(y)
			continue
		}
		if !inputDone && treePages() < capPages() {
			pg, ok, err := e.In.NextPage(inPage)
			if err != nil {
				return fail(err)
			}
			if !ok {
				inputDone = true
				continue
			}
			st.PagesIn++
			st.TuplesIn += len(pg)
			h.push(pg, curTag, curOpen, curLast)
			inPage = pg
			e.charge(OpCompare, h.takeCompares())
			e.charge(OpCopyTuple, int64(len(pg)))
			continue
		}
		if h.live == 0 {
			if inputDone {
				break
			}
			return fail(errors.New("core: replacement selection stuck with empty tree"))
		}
		ended, err := emitBlock(effBlock())
		if err != nil {
			return fail(err)
		}
		if ended {
			if err := closeRun(); err != nil {
				return fail(err)
			}
		}
	}
	if err := waitOut(); err != nil {
		return fail(err)
	}
	if cur != nil {
		runs = append(runs, cur)
		e.emit(st, trace.KindRun, cur.pages, 0, "")
	}
	return runs, nil
}

// miniRun is one input page held as a leaf of replacement selection's tree.
// Its records are sorted in two parts: recs[pos:cut] carry the run tag, and
// recs[cut:] carry tag+1 (they ordered below the current run's last output
// when the page was read, so they must wait for the next run).
type miniRun struct {
	recs  []Record // a pooled buffer of capacity class `class`
	pos   int
	cut   int
	tag   uint32
	class int
}

// head returns the mini-run's next record and its tag.
func (m *miniRun) head() (uint32, Record) {
	if m.pos < m.cut {
		return m.tag, m.recs[m.pos]
	}
	return m.tag + 1, m.recs[m.pos]
}

// rsTree is replacement selection's in-memory state: a selection tree whose
// leaves are sorted page mini-runs (Graefe's cache-friendly variant of the
// classic record-per-leaf tree). Every record enters with its tag fixed
// against the current run's last output, as in the classic scheme, and the
// tree pops the smallest (tag, key, payload) record, so the runs it
// produces are the classic ones record for record; only the comparison
// count differs.
//
// A partly consumed mini-run pins buffer slots that no longer hold records.
// settle bounds that waste: pinned slots stay ≤ 2·live + one page.
type rsTree struct {
	sel  selTree
	runs []miniRun // by leaf
	free []int     // vacant leaves
	// pools holds free buffers by capacity class: class c holds r>>c
	// records, so class c+1 is half of class c.
	pools   [][][]Record
	scratch []Record // merge buffer for sorting a page
	r       int

	live     int   // records held
	pinned   int   // record slots of the buffers held
	cursor   int   // next leaf settle visits
	compares int64 // comparisons not yet charged
	moved    int64 // records moved by compaction, not yet charged
}

func newRSTree(pageRecords int) *rsTree {
	h := &rsTree{r: pageRecords, runs: make([]miniRun, 1), free: []int{0}}
	h.sel.cmp = &h.compares
	h.sel.reset(1)
	for c := 0; pageRecords>>c > 0; c++ {
		h.pools = append(h.pools, nil)
	}
	return h
}

// takeCompares returns the comparisons made since the last call.
func (h *rsTree) takeCompares() int64 {
	c := h.compares
	h.compares = 0
	return c
}

// takeMoved returns the records compaction moved since the last call.
func (h *rsTree) takeMoved() int64 {
	n := h.moved
	h.moved = 0
	return n
}

// topTag returns the smallest record's tag (vacantTag when empty).
func (h *rsTree) topTag() int { return int(h.sel.top().tag()) }

// classFor returns the smallest capacity class that holds n records.
func (h *rsTree) classFor(n int) int {
	c := 0
	for c+1 < len(h.pools) && h.r>>(c+1) >= n {
		c++
	}
	return c
}

func (h *rsTree) getBuf(class, n int) []Record {
	if p := h.pools[class]; len(p) > 0 {
		b := p[len(p)-1]
		h.pools[class] = p[:len(p)-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]Record, n, max(n, h.r>>class))
}

func (h *rsTree) putBuf(class int, b []Record) {
	h.pools[class] = append(h.pools[class], b[:0])
}

// push copies an input page into a pooled buffer (slice inputs hand out
// read-only sub-slices of the caller's records), tags each record against
// the current run — tag+1 when it orders below the run's last output — and
// adds the page as one mini-run leaf: current-run records first, each part
// sorted.
func (h *rsTree) push(pg Page, curTag int, curOpen bool, curLast Record) {
	n := len(pg)
	if n == 0 {
		return
	}
	class := h.classFor(n)
	buf := h.getBuf(class, n)
	lo, hi := 0, n
	for _, rec := range pg {
		if curOpen && Less(rec, curLast) {
			hi--
			buf[hi] = rec
		} else {
			buf[lo] = rec
			lo++
		}
	}
	if cap(h.scratch) < n {
		h.scratch = make([]Record, n)
	}
	h.compares += sortPage(buf[:lo], h.scratch) + sortPage(buf[lo:], h.scratch)

	if len(h.free) == 0 {
		old := h.sel.capacity()
		h.sel.grow()
		h.runs = append(h.runs, make([]miniRun, h.sel.capacity()-old)...)
		for leaf := h.sel.capacity() - 1; leaf >= old; leaf-- {
			h.free = append(h.free, leaf)
		}
	}
	leaf := h.free[len(h.free)-1]
	h.free = h.free[:len(h.free)-1]
	m := &h.runs[leaf]
	*m = miniRun{recs: buf, cut: lo, tag: uint32(curTag), class: class}
	tag, rec := m.head()
	h.sel.set(leaf, tag, rec)
	h.live += n
	h.pinned += cap(buf)
}

// pop removes and returns the smallest record. The tree must not be empty.
func (h *rsTree) pop() Record {
	leaf := h.sel.top().leaf()
	m := &h.runs[leaf]
	rec := m.recs[m.pos]
	if rec.Payload != nil {
		m.recs[m.pos] = Record{} // release the payload reference
	}
	m.pos++
	h.live--
	if m.pos < len(m.recs) {
		tag, next := m.head()
		h.sel.set(leaf, tag, next)
		return rec
	}
	h.putBuf(m.class, m.recs)
	h.pinned -= cap(m.recs)
	*m = miniRun{}
	h.sel.vacate(leaf)
	h.free = append(h.free, leaf)
	return rec
}

// settle enforces the residency bound pinned ≤ 2·live + r. Once the bound
// is crossed it compacts mini-runs, resuming its scan where the last one
// stopped, until pinned ≤ 2·live. A mini-run whose live tail fits a smaller
// capacity class moves there; after a full scan every mini-run is more than
// half full, so the target is always reached.
func (h *rsTree) settle() {
	if h.pinned <= 2*h.live+h.r {
		return
	}
	for n := len(h.runs); n > 0 && h.pinned > 2*h.live; n-- {
		if h.cursor >= len(h.runs) {
			h.cursor = 0
		}
		h.compact(&h.runs[h.cursor])
		h.cursor++
	}
}

// compact moves a sparse mini-run's live tail into a buffer of the
// smallest class that holds it. The tree is untouched: the head record,
// its tag and its leaf stay the same.
func (h *rsTree) compact(m *miniRun) {
	n := len(m.recs) - m.pos
	if n == 0 {
		return
	}
	class := h.classFor(n)
	if class <= m.class {
		return
	}
	buf := h.getBuf(class, n)
	copy(buf, m.recs[m.pos:])
	clear(m.recs[m.pos:]) // the pool must not keep payloads alive
	h.putBuf(m.class, m.recs)
	h.pinned += cap(buf) - cap(m.recs)
	h.moved += int64(n)
	m.recs, m.cut, m.pos, m.class = buf, max(m.cut-m.pos, 0), 0, class
}

// sortPage sorts recs in (key, payload) order and returns the number of
// comparisons it made. It is a bottom-up merge sort over insertion-sorted
// blocks of eight, using tmp (at least len(recs) long) as the merge buffer.
// For page-sized inputs this beats a generic sort, whose comparison
// function is an indirect call and whose branches on random keys mispredict
// half the time.
func sortPage(recs, tmp []Record) int64 {
	const block = 8
	n := len(recs)
	var cmp int64
	for lo := 0; lo < n; lo += block {
		b := recs[lo:min(lo+block, n)]
		for i := 1; i < len(b); i++ {
			x := b[i]
			j := i
			for ; j > 0; j-- {
				cmp++
				if !Less(x, b[j-1]) {
					break
				}
				b[j] = b[j-1]
			}
			b[j] = x
		}
	}
	src, dst := recs, tmp[:n]
	for w := block; w < n; w *= 2 {
		for lo := 0; lo < n; lo += 2 * w {
			mid, hi := min(lo+w, n), min(lo+2*w, n)
			// Branch-free merge step: the borrow of b.Key − a.Key picks the
			// source; only key ties branch, to compare payloads.
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				x, y := src[i], src[j]
				_, v := bits.Sub64(y.Key, x.Key, 0)
				if y.Key == x.Key && payloadLess(y, x) {
					v = 1
				}
				dst[k] = src[i^((i^j)&-int(v))]
				i += 1 - int(v)
				j += int(v)
				k++
			}
			cmp += int64(k - lo)
			k += copy(dst[k:hi], src[i:mid])
			copy(dst[k:hi], src[j:hi])
		}
		src, dst = dst, src
	}
	if n > 0 && &src[0] != &recs[0] {
		copy(recs, src)
	}
	return cmp
}
