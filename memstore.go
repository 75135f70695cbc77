package masort

import (
	"fmt"
	"sync"
)

// MemStore is an in-memory RunStore. It is the default store and is also
// handy in tests.
//
// Buffer ownership: Append copies the record slice of every page before
// returning, so callers may reuse page buffers immediately (payload bytes
// are shared, not copied — they are immutable by the RunStore contract).
// ReadAsync returns the stored page itself, not a copy: callers must treat
// it as read-only, and it remains valid until the run is freed.
type MemStore struct {
	mu    sync.Mutex
	runs  map[RunID][]Page
	freed map[RunID]bool
	next  RunID
}

// NewMemStore creates an empty in-memory run store.
func NewMemStore() *MemStore {
	return &MemStore{runs: map[RunID][]Page{}, freed: map[RunID]bool{}}
}

// readyToken is an already-completed write token. retries counts the
// failed write attempts a synchronous store retried before it settled.
type readyToken struct {
	err     error
	retries int
}

func (t readyToken) Wait() error { return t.err }

// Retries reports how many failed write attempts were retried.
func (t readyToken) Retries() int { return t.retries }

type readyPage struct {
	pg  Page
	err error
}

func (t readyPage) Wait() (Page, error) { return t.pg, t.err }

// Create opens a new empty run.
func (s *MemStore) Create() (RunID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.next
	s.next++
	s.runs[id] = nil
	return id, nil
}

// Append adds pages to a run. The returned token is already complete.
func (s *MemStore) Append(id RunID, pages []Page) (Token, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freed[id] {
		return nil, fmt.Errorf("masort: append to freed run %d", id)
	}
	if _, ok := s.runs[id]; !ok {
		return nil, fmt.Errorf("masort: append to unknown run %d", id)
	}
	for _, p := range pages {
		cp := make(Page, len(p))
		copy(cp, p)
		s.runs[id] = append(s.runs[id], cp)
	}
	return readyToken{}, nil
}

// ReadAsync reads one page of a run.
func (s *MemStore) ReadAsync(id RunID, page int) PageToken {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freed[id] {
		return readyPage{err: fmt.Errorf("masort: read of freed run %d", id)}
	}
	pages, ok := s.runs[id]
	if !ok || page < 0 || page >= len(pages) {
		return readyPage{err: fmt.Errorf("masort: run %d has no page %d", id, page)}
	}
	return readyPage{pg: pages[page]}
}

// Pages returns the number of pages in a run.
func (s *MemStore) Pages(id RunID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs[id])
}

// Free releases a run.
func (s *MemStore) Free(id RunID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freed[id] {
		return fmt.Errorf("masort: double free of run %d", id)
	}
	if _, ok := s.runs[id]; !ok {
		return fmt.Errorf("masort: free of unknown run %d", id)
	}
	s.freed[id] = true
	delete(s.runs, id)
	return nil
}

// Live returns the number of unfreed runs (for leak checks in tests).
func (s *MemStore) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}
