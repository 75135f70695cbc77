package masort

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
)

// TestSortAllocationPerInputByte bounds what a keys-only external sort
// allocates per byte of input, end to end: a streaming (non-slice) input
// 40× the budget, sorted on a FileStore and drained. Store reads decode
// into recycled page frames and the split phase refills the input page it
// has just copied, so the heap a sort churns through follows its grant and
// run bookkeeping instead of growing by one page per page read.
func TestSortAllocationPerInputByte(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled frames at random under -race")
	}
	const (
		budget      = 16
		pageRecords = 256
		records     = 40 * budget * pageRecords
		inputBytes  = 8 * records
		maxPerByte  = 1.5
	)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			store, err := NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			rng := rand.New(rand.NewPCG(7, 7))
			left := records
			input := FuncIterator(func() (Record, bool, error) {
				if left == 0 {
					return Record{}, false, nil
				}
				left--
				return Record{Key: rng.Uint64()}, true, nil
			})

			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res, err := Sort(context.Background(), input,
				WithBudget(NewBudget(budget)), WithPageRecords(pageRecords),
				WithStore(store), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			it := res.Iterator()
			n := 0
			var prev Record
			for {
				rec, ok, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				if n > 0 && Less(rec, prev) {
					t.Fatalf("record %d out of order", n)
				}
				prev = rec
				n++
			}
			runtime.ReadMemStats(&m1)
			if err := res.Close(); err != nil {
				t.Fatal(err)
			}
			if n != records {
				t.Fatalf("drained %d records, want %d", n, records)
			}
			perByte := float64(m1.TotalAlloc-m0.TotalAlloc) / inputBytes
			t.Logf("%.2f B allocated per input byte (%d runs, %d merge steps)",
				perByte, res.Stats.Runs, res.Stats.MergeSteps)
			if perByte > maxPerByte {
				t.Errorf("sort allocated %.2f B per input byte, want ≤ %.1f", perByte, maxPerByte)
			}
		})
	}
}
