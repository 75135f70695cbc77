package core

import "fmt"

// runInfo tracks one sorted run from creation through merge consumption.
//
// During merging, the run's current record lives in a one-record private
// workspace (ws) — exactly the paper's §3.2.2 design: the merge compares
// workspace tuples, so input buffers can be dropped (suspension, paging
// eviction, step switches) at any time without losing the merge position.
// (page, pos) is the storage position of the next record to copy into the
// workspace; bufs holds the resident pages starting at `page`.
type runInfo struct {
	id     RunID
	pages  int // pages written so far
	tuples int // tuples written so far

	ws      Record // current record (valid if wsValid)
	wsValid bool
	page    int    // page index of the next record to refill from
	pos     int    // record index within that page
	bufs    []Page // resident pages, consecutive from `page`; nil when dropped

	lastUsed int64      // MRU clock for the paging strategy
	hiLoaded int        // high-water mark of loaded pages (re-read detection)
	producer *mergeStep // step still appending to this run, nil when complete
	freed    bool

	// fences records the first key of every page as the split phase writes
	// the run. The parallel merge uses them to partition runs by key range
	// without reading them; runs handed to MergeExisting have none.
	fences []Key

	// shared marks a key-range clone of a run owned by the parallel merge
	// coordinator: the engine must not free the underlying storage when the
	// clone is consumed (the coordinator frees the run once every worker is
	// done with it). bounded/hi limit the clone to keys < hi; the lower
	// bound is applied once, by seeking (page, pos) past keys < lo.
	shared  bool
	bounded bool
	hi      Key
}

// remainingPages estimates how much of the run is left to read — the metric
// used to pick the "shortest" runs for preliminary merges.
func (r *runInfo) remainingPages() int { return r.pages - r.page }

// loaded returns the number of resident buffer pages.
func (r *runInfo) loaded() int { return len(r.bufs) }

// drop releases all resident buffers, recycling them through e. The
// workspace record and the refill position survive, so merging can resume
// after re-reading `page`.
func (r *runInfo) drop(e *Env) int {
	n := len(r.bufs)
	for _, pg := range r.bufs {
		e.recycle(pg)
	}
	clear(r.bufs)
	r.bufs = r.bufs[:0]
	return n
}

// exhausted reports whether every written record has been consumed,
// including the workspace. For runs with a paused producer this means
// "caught up", not necessarily final.
func (r *runInfo) exhausted() bool {
	return !r.wsValid && r.page >= r.pages && len(r.bufs) == 0
}

// needsLoad reports whether refilling requires a page read.
func (r *runInfo) needsLoad() bool {
	return len(r.bufs) == 0 && r.page < r.pages
}

// refill copies the next stored record into the workspace. It requires the
// current page to be resident; returns false (and invalidates the
// workspace) when no stored records remain resident. A page is recycled
// through e as soon as refill moves past it: the workspace holds a copy of
// the record, so nothing references the page any more.
func (r *runInfo) refill(e *Env) bool {
	if len(r.bufs) == 0 {
		r.wsValid = false
		return false
	}
	rec := r.bufs[0][r.pos]
	if r.bounded && rec.Key >= r.hi {
		// The clone's key range is exhausted: everything from here on
		// belongs to the next partition. Discard the residue so the run
		// reads as consumed (the underlying storage is freed by the
		// coordinator, not this reader).
		r.drop(e)
		r.page = r.pages
		r.pos = 0
		r.wsValid = false
		return false
	}
	r.ws = rec
	r.wsValid = true
	r.pos++
	for len(r.bufs) > 0 && r.pos >= len(r.bufs[0]) {
		e.recycle(r.bufs[0])
		// Shift rather than reslice, so the next load reuses the slice.
		n := copy(r.bufs, r.bufs[1:])
		r.bufs[n] = nil
		r.bufs = r.bufs[:n]
		r.page++
		r.pos = 0
	}
	return true
}

func (r *runInfo) String() string {
	return fmt.Sprintf("run%d[%d/%d pages, pos %d.%d]", r.id, r.remainingPages(), r.pages, r.page, r.pos)
}

// sumRemaining totals remaining pages over runs (join's side-selection rule).
func sumRemaining(runs []*runInfo) int {
	t := 0
	for _, r := range runs {
		t += r.remainingPages()
	}
	return t
}
