package masort

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"
)

// liveStore is a RunStore that reports how many runs it still holds.
type liveStore interface {
	RunStore
	Live() int
}

// budgetOnRead runs fn once, on the store's nth page read. Merges read
// pages continuously, so the hook lands mid-merge whatever the scheduling.
type budgetOnRead struct {
	liveStore
	at    int64
	fn    func()
	reads atomic.Int64
}

func (s *budgetOnRead) ReadAsync(id RunID, page int) PageToken {
	if s.reads.Add(1) == s.at {
		s.fn()
	}
	return s.liveStore.ReadAsync(id, page)
}

func compareRecords(a, b Record) int {
	return cmp.Or(cmp.Compare(a.Key, b.Key), bytes.Compare(a.Payload, b.Payload))
}

// oracleRuns writes sorted runs of the given lengths into store. Keys come
// from a range of 8, so every run is duplicate-heavy and the payload breaks
// the ties. It returns the run ids, their total pages and every record.
func oracleRuns(t *testing.T, store RunStore, lens []int, pageRecords int) ([]RunID, int, []Record) {
	t.Helper()
	rng := rand.New(rand.NewPCG(uint64(len(lens)), 5))
	var ids []RunID
	var all []Record
	pages := 0
	for _, n := range lens {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{Key: rng.Uint64N(8), Payload: []byte{byte(rng.Uint64()), byte(rng.Uint64())}}
		}
		slices.SortFunc(recs, compareRecords)
		id, _, err := WriteRun(store, NewSliceIterator(recs), pageRecords)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		all = append(all, recs...)
		pages += store.Pages(id)
	}
	return ids, pages, all
}

// TestMergeMatchesOracle is the differential test of Merge: uneven runs of
// duplicate-heavy keys, one of them empty, merged at workers 1, 2 and 4 on
// the memory and the file store, under a fixed budget and under a shrink
// that lands mid-merge, must drain to exactly slices.SortFunc's order and
// leave no run and no granted page behind.
func TestMergeMatchesOracle(t *testing.T) {
	const pageRecords = 16
	lens := []int{900, 0, 37, 2400, 1, 610, 1500, 333}
	stores := map[string]func(t *testing.T) liveStore{
		"mem": func(*testing.T) liveStore { return NewMemStore() },
		"file": func(t *testing.T) liveStore {
			fs, err := NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = fs.Close() })
			return fs
		},
	}
	for _, storeName := range []string{"mem", "file"} {
		for _, shrink := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/shrink=%v/w%d", storeName, shrink, workers), func(t *testing.T) {
					budget := NewBudget(48)
					base := stores[storeName](t)
					ids, pages, all := oracleRuns(t, base, lens, pageRecords)
					store := &budgetOnRead{liveStore: base, at: -1, fn: func() { budget.Resize(8) }}
					if shrink {
						store.at = int64(pages / 3)
					}
					res, err := Merge(context.Background(), store, ids,
						WithPageRecords(pageRecords), WithBudget(budget), WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					got, err := Drain(res.Iterator())
					if err != nil {
						t.Fatal(err)
					}
					want := slices.Clone(all)
					slices.SortFunc(want, compareRecords)
					if len(got) != len(want) {
						t.Fatalf("merged %d records, want %d", len(got), len(want))
					}
					for i := range got {
						if compareRecords(got[i], want[i]) != 0 {
							t.Fatalf("record %d = %v, oracle %v", i, got[i], want[i])
						}
					}
					if workers > 1 && len(res.runs) < 2 {
						t.Fatalf("a %d-worker merge returned %d segment(s)", workers, len(res.runs))
					}
					if s := res.Stats; shrink && s.Splits+s.Suspensions == 0 {
						t.Fatalf("the shrink at read %d of %d drew no adaptation", store.at, store.reads.Load())
					}
					if err := res.Close(); err != nil {
						t.Fatal(err)
					}
					if n := base.Live(); n != 0 {
						t.Fatalf("%d runs live after Close", n)
					}
					if g := budget.Granted(); g != 0 {
						t.Fatalf("%d pages still granted", g)
					}
				})
			}
		}
	}
}

// TestMergeCancelMidMerge cancels a four-worker Merge halfway through its
// reads: it must fail with the context's error, free every input and
// partial output run, and hand back every page.
func TestMergeCancelMidMerge(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	budget := NewBudget(48)
	base := NewMemStore()
	ids, pages, _ := oracleRuns(t, base, []int{3000, 2000, 2500, 1800, 2200}, 16)
	store := &budgetOnRead{liveStore: base, at: int64(pages / 2), fn: cancel}
	_, err := Merge(ctx, store, ids, WithPageRecords(16), WithBudget(budget), WithWorkers(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if store.reads.Load() < store.at {
		t.Fatalf("merge finished after %d reads, before the cancel at %d", store.reads.Load(), store.at)
	}
	if n := base.Live(); n != 0 {
		t.Fatalf("%d runs live after a canceled merge", n)
	}
	if g := budget.Granted(); g != 0 {
		t.Fatalf("%d pages still granted after a canceled merge", g)
	}
}
