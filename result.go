package masort

import (
	"iter"

	"github.com/memadapt/masort/trace"
)

// Result is the outcome of a finished Sort, Join, GroupBy or Merge: a
// handle to the stored run of output records plus execution statistics. It
// implements io.Closer; Close releases the run's storage, after which the
// result must not be iterated.
type Result struct {
	store RunStore
	// runs holds the output in key order. Serial operators produce exactly
	// one run; a parallel sort (WithWorkers) may produce up to Workers
	// key-partitioned segments whose concatenation is the sorted output.
	// Iterator chains them transparently; Close frees them all.
	runs []RunID

	// Pages and Tuples size the output run.
	Pages  int
	Tuples int

	// Stats reports what the operator did (runs, merge steps, splits,
	// combines, suspensions, phase durations, ...).
	Stats Stats

	// Join carries join-specific statistics (per-relation run counts,
	// result tuples); nil for results of Sort, GroupBy and Merge.
	Join *JoinStats

	// Pool reports how shared-pool arbitration treated the operator
	// (admission wait, grants, blocking waits); nil unless the operator
	// ran under WithPool.
	Pool *PoolStats

	// Counters tallies CPU-relevant operations.
	Counters Counters

	// Events is the operator's flight recorder — the last N trace events,
	// oldest first via Events.Events() — when the operator ran with
	// WithEventLog; nil otherwise.
	Events *trace.Ring

	freed bool
}

// Iterator streams the output records in sorted order, keeping one page of
// read-ahead in flight against the store. A closed result yields ErrFreed.
//
// Records are returned by value, so they stay valid after the iterator
// moves on, even though a FileStore, MmapStore or StripedStore reuses the
// page frame they were read from. Their payloads alias store read buffers
// (zero-copy): callers retaining Record.Payload across many records should
// copy it — each retained payload pins its whole page buffer (see
// README.md, "Buffer ownership and zero-copy").
func (r *Result) Iterator() Iterator {
	if r.freed {
		return FuncIterator(func() (Record, bool, error) {
			return Record{}, false, ErrFreed
		})
	}
	if len(r.runs) == 1 {
		return &runIterator{store: r.store, id: r.runs[0], pages: r.Pages}
	}
	return &segmentsIterator{store: r.store, runs: r.runs}
}

// segmentsIterator chains the per-segment run iterators of a parallel
// result in key order.
type segmentsIterator struct {
	store RunStore
	runs  []RunID
	cur   *runIterator
}

func (s *segmentsIterator) Next() (Record, bool, error) {
	for {
		if s.cur == nil {
			if len(s.runs) == 0 {
				return Record{}, false, nil
			}
			id := s.runs[0]
			s.runs = s.runs[1:]
			s.cur = &runIterator{store: s.store, id: id, pages: s.store.Pages(id)}
		}
		rec, ok, err := s.cur.Next()
		if err != nil || ok {
			return rec, ok, err
		}
		s.cur = nil
	}
}

// All returns the output records as a range-over-func sequence:
//
//	for rec, err := range res.All() {
//		if err != nil { ... }
//		...
//	}
//
// The sequence yields at most one non-nil error, as its final pair.
func (r *Result) All() iter.Seq2[Record, error] {
	return All(r.Iterator())
}

// Close releases the result's storage (every segment of a parallel result).
// The Result must not be iterated afterwards; a second Close returns
// ErrFreed.
func (r *Result) Close() error {
	if r.freed {
		return ErrFreed
	}
	r.freed = true
	var first error
	for _, id := range r.runs {
		if err := r.store.Free(id); err != nil && first == nil {
			first = err
		}
	}
	return first
}
