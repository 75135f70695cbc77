package core

import (
	"fmt"
	"time"
)

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

// MergeExisting merges already-sorted runs that live in e.Store, under the
// configured merging strategy and memory-adaptation strategy — the merge
// phase of an external sort exposed on its own (useful for compaction-style
// workloads). The input runs are consumed: they are freed as the merge
// retires them. With a single input run, that run is returned unchanged.
// With cfg.Workers > 1 the merge is partitioned by key range as in
// ExternalSort, reading the fences of the runs from the store as it needs
// them; the output is then a short ordered sequence of segment runs.
func MergeExisting(e *Env, cfg SortConfig, ids []RunID) (*SortResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t0 := e.now()
	runs := make([]*runInfo, len(ids))
	for i, id := range ids {
		runs[i] = &runInfo{id: id, pages: e.Store.Pages(id)}
	}
	// The inputs are consumed even on abort: a canceled merge frees them
	// so nothing leaks (the engine owns them from the moment of the call).
	if err := e.ctxErr(); err != nil {
		freeRuns(e, runs)
		return nil, err
	}
	return mergePhase(e, cfg, &SortStats{Workers: cfg.Workers}, runs, t0)
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
	st := &SortStats{Workers: cfg.Workers}
	t0 := e.now()

	if err := e.ctxErr(); err != nil {
		return nil, err
	}
	var runs []*runInfo
	var err error
	if cfg.Workers > 1 {
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
	res, err := mergePhase(e, cfg, st, runs, t0)
	if err == nil && res.Tuples != st.TuplesIn {
		return nil, fmt.Errorf("core: sort lost tuples: in %d, out %d", st.TuplesIn, res.Tuples)
	}
	return res, err
}

// mergePhase is the merge phase of ExternalSort and MergeExisting: it merges
// runs, consuming them, into the output segments and builds the SortResult.
// No input yields one empty output run, and a single run is the output as
// it is. t0 is the start of the operation, for Stats.Response.
func mergePhase(e *Env, cfg SortConfig, st *SortStats, runs []*runInfo, t0 time.Duration) (*SortResult, error) {
	e.setPhase("merge")
	tm := e.now()
	segments := runs
	if len(runs) > 1 {
		var err error
		if segments, err = mergeSegments(e, cfg, st, runs); err != nil {
			// The merge freed its inputs and partial outputs on abort.
			e.yieldAll()
			return nil, err
		}
	}
	if len(segments) == 0 {
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
	e.yieldAll()
	res := &SortResult{Segments: make([]RunID, len(segments)), Stats: *st}
	for i, s := range segments {
		res.Pages += s.pages
		res.Tuples += s.tuples
		res.Segments[i] = s.id
	}
	res.Result = res.Segments[0]
	return res, nil
}

// mergeSegments merges two or more runs into key-ordered output segments:
// a parallel key-range merge when there are workers and at least two input
// pages for each, else one serial merge into a single run.
func mergeSegments(e *Env, cfg SortConfig, st *SortStats, runs []*runInfo) ([]*runInfo, error) {
	total := 0
	for _, r := range runs {
		total += r.pages
	}
	if w := min(cfg.Workers, total/2); w > 1 {
		return parallelMerge(e, cfg, st, runs, w)
	}
	m := &mergeEngine{e: e, cfg: cfg, st: st}
	out, err := m.mergeRuns(runs)
	if err != nil {
		return nil, err
	}
	return []*runInfo{out}, nil
}
