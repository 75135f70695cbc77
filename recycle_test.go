package masort

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// poisonKey and poisonPayload fill every page the engine recycles.
const poisonKey = 0xdeadbeefdeadbeef

var poisonPayload = []byte("recycled page read after release")

// poisonStore checks the engine's page recycling against a real store.
// Every page the engine hands back is overwritten with sentinel records and
// never reused, so a page the engine still reads after releasing it puts
// sentinels into the output, and a second release of the same frame fails
// the test. Reads of a store that hands out its own stored pages (MemStore)
// are copied first, so poisoning them cannot corrupt the store.
//
// The store also drives a budget schedule from its page operations: every
// period operations the budget is cut to low for hold operations, so the
// shrinks land at the same points of every run of the sort. A suspended
// merge does no page operations, so onEvent restores the budget when one
// suspends and no cut lands until it has resumed.
type poisonStore struct {
	RunStore
	copyReads bool

	budget            *Budget
	period, hold      int64
	low, high         int
	ops               atomic.Int64
	mu                sync.Mutex // guards the fields below and orders cuts against suspensions
	suspended         int
	released          map[*Record]bool
	releases, doubles int
}

func (s *poisonStore) tick(n int) {
	if s.period == 0 {
		return
	}
	for range n {
		switch s.ops.Add(1) % s.period {
		case 0:
			s.mu.Lock()
			if s.suspended == 0 {
				s.budget.Resize(s.low)
			}
			s.mu.Unlock()
		case s.hold:
			s.budget.Resize(s.high)
		}
	}
}

func (s *poisonStore) onEvent(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case EvSuspend:
		s.suspended++
		s.budget.Resize(s.high)
	case EvResume:
		s.suspended--
	}
}

func (s *poisonStore) Append(id RunID, pages []Page) (Token, error) {
	s.tick(len(pages))
	return s.RunStore.Append(id, pages)
}

func (s *poisonStore) ReadAsync(id RunID, page int) PageToken {
	s.tick(1)
	tok := s.RunStore.ReadAsync(id, page)
	if !s.copyReads {
		return tok
	}
	pg, err := tok.Wait()
	return readyPage{pg: slices.Clone(pg), err: err}
}

func (s *poisonStore) recycle(pg Page) {
	if cap(pg) == 0 {
		return
	}
	pg = pg[:cap(pg)]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releases++
	if s.released[&pg[0]] {
		s.doubles++
		return
	}
	s.released[&pg[0]] = true
	for i := range pg {
		pg[i] = Record{Key: poisonKey, Payload: poisonPayload}
	}
}

// poisonBackends are the stores the poison tests run over: one per
// backend, built fresh for each sort.
var poisonBackends = []struct {
	name string
	open func(t *testing.T) (RunStore, func() error)
}{
	{"mem", func(t *testing.T) (RunStore, func() error) { return NewMemStore(), func() error { return nil } }},
	{"file", func(t *testing.T) (RunStore, func() error) {
		s, err := NewStoreConfig().File(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s, s.Close
	}},
	{"mmap", func(t *testing.T) (RunStore, func() error) {
		s, err := NewStoreConfig().Mmap(t.TempDir())
		if errors.Is(err, ErrMmapUnsupported) {
			t.Skip("mmap not supported on this platform")
		}
		if err != nil {
			t.Fatal(err)
		}
		return s, s.Close
	}},
	{"striped", func(t *testing.T) (RunStore, func() error) {
		s, err := NewStoreConfig().Striped(t.TempDir(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s, s.Close
	}},
}

// newPoisonStore wraps inner under a 12-page budget, cut to 4 pages on a
// schedule when shrink is set.
func newPoisonStore(inner RunStore, shrink bool) *poisonStore {
	_, pooled := inner.(recycler)
	ps := &poisonStore{
		RunStore: inner, copyReads: !pooled,
		budget: NewBudget(12), low: 4, high: 12,
		released: map[*Record]bool{},
	}
	if shrink {
		ps.period, ps.hold = 40, 15
	}
	return ps
}

// check fails the test if the engine recycled a frame twice, or nothing.
func (s *poisonStore) check(t *testing.T) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.doubles > 0 {
		t.Fatalf("%d of %d page releases recycled an already recycled frame", s.doubles, s.releases)
	}
	if s.releases == 0 {
		t.Fatal("the engine recycled no page")
	}
}

// tiedRecords returns n records whose keys tie often, broken by payload.
func tiedRecords(n int, seed uint64) []Record {
	recs := randomRecords(n, seed, 0)
	for i := range recs {
		recs[i].Key %= 700
		recs[i].Payload = fmt.Appendf(nil, "p%d", i%97)
	}
	return recs
}

// streamOf iterates recs through a non-slice Iterator, so the operator
// pages it into buffers of its own.
func streamOf(recs []Record) Iterator {
	return FuncIterator(func() (Record, bool, error) {
		if len(recs) == 0 {
			return Record{}, false, nil
		}
		r := recs[0]
		recs = recs[1:]
		return r, true, nil
	})
}

func cmpRecords(a, b Record) int {
	if Less(a, b) {
		return -1
	}
	if Less(b, a) {
		return 1
	}
	return 0
}

// assertRecordsEqual compares keys and payload bytes. MmapStore payloads
// alias its mapping, so call it before the store is closed.
func assertRecordsEqual(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records out, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d = (%x, %q), want (%x, %q)",
				i, got[i].Key, got[i].Payload, want[i].Key, want[i].Payload)
		}
	}
}

var (
	methodName = map[Method]string{ReplacementSelection: "repl", Quicksort: "quick"}
	adaptName  = map[Adaptation]string{DynamicSplitting: "split", MRUPaging: "paging", Suspension: "suspend"}
)

// TestRecycledPagesArePoisoned sorts through poisonStore over every store
// backend, split method, adaptation strategy and worker count, with and
// without a shrink schedule, and compares the output with a slices.SortFunc
// oracle. The input streams through a non-slice iterator, so the split
// phase also refills its input pages.
func TestRecycledPagesArePoisoned(t *testing.T) {
	in := tiedRecords(6000, 31)
	want := slices.Clone(in)
	slices.SortFunc(want, cmpRecords)

	type config struct {
		store     int
		method    Method
		adapt     Adaptation
		workers   int
		shrink    bool
		readAhead bool
	}
	var configs []config
	for st := range poisonBackends {
		for _, m := range []Method{ReplacementSelection, Quicksort} {
			for _, a := range []Adaptation{DynamicSplitting, MRUPaging, Suspension} {
				for _, w := range []int{1, 2} {
					configs = append(configs,
						config{st, m, a, w, false, false},
						config{st, m, a, w, true, false},
						config{st, m, a, w, true, true})
				}
			}
		}
	}
	for _, c := range configs {
		name := fmt.Sprintf("%s/%s/%s/w%d/shrink=%v/readahead=%v", poisonBackends[c.store].name,
			methodName[c.method], adaptName[c.adapt], c.workers, c.shrink, c.readAhead)
		t.Run(name, func(t *testing.T) {
			inner, closeStore := poisonBackends[c.store].open(t)
			ps := newPoisonStore(inner, c.shrink)
			res, err := Sort(context.Background(), streamOf(in),
				WithMethod(c.method), WithAdaptation(c.adapt), WithWorkers(c.workers),
				WithPageRecords(32), WithBudget(ps.budget), WithStore(ps),
				WithAdaptiveBlockIO(c.readAhead), WithEvents(ps.onEvent))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Drain(res.Iterator())
			if err != nil {
				t.Fatal(err)
			}
			assertRecordsEqual(t, got, want)
			if err := res.Close(); err != nil {
				t.Fatal(err)
			}
			if err := closeStore(); err != nil {
				t.Fatal(err)
			}
			ps.check(t)
		})
	}
}

// TestRecycledJoinPagesArePoisoned runs the sort-merge join, whose merge
// phase consumes runs of both relations through the same page cursors,
// through poisonStore, against a nested-loop oracle.
func TestRecycledJoinPagesArePoisoned(t *testing.T) {
	left, right := tiedRecords(2500, 41), tiedRecords(2000, 43)
	byKey := map[Key][]Record{}
	for _, r := range right {
		byKey[r.Key] = append(byKey[r.Key], r)
	}
	var want []Record
	for _, l := range left {
		for _, r := range byKey[l.Key] {
			want = append(want, Record{Key: l.Key, Payload: append(slices.Clip(l.Payload), r.Payload...)})
		}
	}
	slices.SortFunc(want, cmpRecords)

	for _, b := range poisonBackends {
		for _, a := range []Adaptation{DynamicSplitting, MRUPaging, Suspension} {
			for _, shrink := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/shrink=%v", b.name, adaptName[a], shrink), func(t *testing.T) {
					inner, closeStore := b.open(t)
					ps := newPoisonStore(inner, shrink)
					res, err := Join(context.Background(), streamOf(left), streamOf(right),
						WithAdaptation(a), WithPageRecords(32), WithBudget(ps.budget),
						WithStore(ps), WithEvents(ps.onEvent))
					if err != nil {
						t.Fatal(err)
					}
					got, err := Drain(res.Iterator())
					if err != nil {
						t.Fatal(err)
					}
					slices.SortFunc(got, cmpRecords)
					assertRecordsEqual(t, got, want)
					if err := res.Close(); err != nil {
						t.Fatal(err)
					}
					if err := closeStore(); err != nil {
						t.Fatal(err)
					}
					ps.check(t)
				})
			}
		}
	}
}
