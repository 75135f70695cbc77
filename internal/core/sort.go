package core

import "fmt"

// SortResult is the outcome of one external sort: the identity of the final
// sorted output plus execution statistics.
type SortResult struct {
	// Result is the first (often only) output run. Serial sorts always
	// produce exactly one; see Segments.
	Result RunID
	// Segments lists every output run in key order. A serial sort (and any
	// simulated sort) has exactly one segment; a parallel key-partitioned
	// merge produces up to Workers segments whose concatenation is the
	// sorted output — value-identical to the serial result.
	Segments []RunID
	Pages    int
	Tuples   int
	Stats    SortStats
}

// MergeExisting merges already-sorted runs that live in e.Store into one
// run, under the configured merging strategy and memory-adaptation strategy
// — the merge phase of an external sort exposed on its own (useful for
// compaction-style workloads). The input runs are consumed: they are freed
// as the merge retires them. With a single input run, that run is returned
// unchanged. With cfg.Workers > 1 the merge runs as a tree: disjoint run
// groups merge in parallel, then one serial final merge (the result is
// still a single run).
func MergeExisting(e *Env, cfg SortConfig, ids []RunID) (*SortResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := &SortStats{}
	pw := effectiveWorkers(e, cfg)
	st.Workers = pw
	t0 := e.now()
	// The inputs are consumed even on abort: a canceled merge frees them
	// so nothing leaks (the engine owns them from the moment of the call).
	// Checked before the arity switch so the 0- and 1-run fast paths honor
	// cancellation like every other operator entry.
	if err := e.ctxErr(); err != nil {
		runs := make([]*runInfo, len(ids))
		for i, id := range ids {
			runs[i] = &runInfo{id: id}
		}
		freeRuns(e, runs)
		return nil, err
	}
	e.setPhase("merge")
	var result *runInfo
	switch len(ids) {
	case 0:
		id, err := e.Store.Create()
		if err != nil {
			return nil, err
		}
		result = &runInfo{id: id}
	case 1:
		result = &runInfo{id: ids[0], pages: e.Store.Pages(ids[0])}
	default:
		runs := make([]*runInfo, len(ids))
		for i, id := range ids {
			runs[i] = &runInfo{id: id, pages: e.Store.Pages(id)}
		}
		var err error
		if pw > 1 && len(ids) >= 4 {
			result, err = parallelTreeMerge(e, cfg, st, runs)
		} else {
			m := &mergeEngine{e: e, cfg: cfg, st: st}
			result, err = m.mergeRuns(runs)
		}
		if err != nil {
			return nil, err
		}
	}
	st.MergeDuration = e.now() - t0
	st.Response = st.MergeDuration
	e.setPhase("idle")
	if g := e.Mem.Granted(); g > 0 {
		e.Mem.Yield(g)
	}
	return &SortResult{
		Result:   result.id,
		Segments: []RunID{result.id},
		Pages:    result.pages,
		Tuples:   result.tuples,
		Stats:    *st,
	}, nil
}

// ExternalSort sorts e.In under cfg, writing the final sorted output into
// e.Store. It adapts its memory usage to e.Mem throughout — the paper's
// memory-adaptive external sort. With cfg.Workers > 1 (real engine only)
// both phases run on a worker crew; the output is then a short ordered
// sequence of segment runs (SortResult.Segments) whose concatenation is the
// sorted result.
func ExternalSort(e *Env, cfg SortConfig) (*SortResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := &SortStats{}
	pw := effectiveWorkers(e, cfg)
	st.Workers = pw
	t0 := e.now()

	if err := e.ctxErr(); err != nil {
		return nil, err
	}
	var runs []*runInfo
	var err error
	if pw > 1 {
		runs, err = parallelSplit(e, cfg, st)
	} else {
		runs, err = splitPhase(e, cfg, st)
	}
	if err != nil {
		// The split path returns the runs produced before the error so an
		// aborted sort leaves no storage behind.
		freeRuns(e, runs)
		e.yieldAll()
		return nil, err
	}
	st.SplitDuration = e.now() - t0

	e.setPhase("merge")
	tm := e.now()
	var segments []*runInfo
	switch len(runs) {
	case 0:
		// Empty input still yields a (empty) result run.
		id, err := e.Store.Create()
		if err != nil {
			return nil, err
		}
		segments = []*runInfo{{id: id}}
	case 1:
		segments = runs
	default:
		merged := false
		if pw > 1 {
			segs, ok, perr := parallelMerge(e, cfg, st, runs)
			if perr != nil {
				// The parallel merge freed the inputs and the workers'
				// partial outputs on abort.
				e.yieldAll()
				return nil, perr
			}
			if ok {
				segments = segs
				merged = true
			}
		}
		if !merged {
			m := &mergeEngine{e: e, cfg: cfg, st: st}
			result, err := m.mergeRuns(runs)
			if err != nil {
				// The merge engine frees its runs on abort.
				e.yieldAll()
				return nil, err
			}
			segments = []*runInfo{result}
		}
	}
	if len(segments) == 0 {
		// Defensive: a parallel merge of nonempty runs always yields at
		// least one segment, but an all-empty partition set degenerates to
		// an empty result run.
		id, err := e.Store.Create()
		if err != nil {
			return nil, err
		}
		segments = []*runInfo{{id: id}}
	}
	st.MergeDuration = e.now() - tm
	st.Response = e.now() - t0
	e.setPhase("idle")

	// Hand every page back before completing.
	if g := e.Mem.Granted(); g > 0 {
		e.Mem.Yield(g)
	}
	pages, tuples := 0, 0
	ids := make([]RunID, len(segments))
	for i, s := range segments {
		pages += s.pages
		tuples += s.tuples
		ids[i] = s.id
	}
	if tuples != st.TuplesIn {
		return nil, fmt.Errorf("core: sort lost tuples: in %d, out %d", st.TuplesIn, tuples)
	}
	return &SortResult{
		Result:   ids[0],
		Segments: ids,
		Pages:    pages,
		Tuples:   tuples,
		Stats:    *st,
	}, nil
}
