// Package core implements the VLDB'93 memory-adaptive external sorting
// algorithms: the three split-phase in-memory sorting methods (Quicksort,
// replacement selection, replacement selection with block writes), the two
// merging strategies (naive and optimized), the three merge-phase adaptation
// strategies (suspension, MRU paging, and dynamic splitting — the paper's
// contribution), and their extension to sort-merge joins.
//
// The algorithms are written against the Env abstraction (input stream, run
// store, memory broker, CPU meter, clock), so the identical code runs both
// in the discrete-event simulator that reproduces the paper's experiments
// (internal/simenv) and in the real execution engine exposed by the public
// masort package.
package core

import "bytes"

// Key is the sort key. Records order by Key first, then by Payload bytes.
type Key = uint64

// Record is one tuple.
type Record struct {
	Key     Key
	Payload []byte
}

// Less reports whether a orders before b. It inlines at its call sites;
// payload bytes are compared, out of line, only on a key tie.
func Less(a, b Record) bool {
	return a.Key < b.Key || a.Key == b.Key && payloadLess(a, b)
}

// payloadLess stays out of line so that Less fits the inlining budget.
//
//go:noinline
func payloadLess(a, b Record) bool { return bytes.Compare(a.Payload, b.Payload) < 0 }

// Page is one disk page worth of records. Pages within a run are full except
// possibly the last one (or pages flushed early during an adaptation, which
// the paper's model also permits).
type Page []Record

// PagesForTuples returns how many pages n tuples occupy at r records/page.
func PagesForTuples(n, r int) int {
	if n <= 0 {
		return 0
	}
	return (n + r - 1) / r
}
