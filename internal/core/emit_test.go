package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"github.com/memadapt/masort/trace"
)

// TestEventTallyMatchesStats checks that the event stream and SortStats are
// one tally: a budget script driven by the sort's own events and merge
// appends forces a dynamic split, a combine that is aborted by a shrink
// mid-drain, and a combine that completes. Per-kind event counts must equal
// the Stats counters, every combine must end or abort, every suspension
// resume, and every step span close exactly once, in the Chrome trace too.
func TestEventTallyMatchesStats(t *testing.T) {
	const (
		total       = 32
		pageRecords = 8
		shrinkAt    = 10 // merge-output appends before the first shrink
		growAfter   = 6  // appends between the split and the growth
	)
	// 224 input pages: 7 runs at total pages each serially, 14 at half that
	// per worker under two workers — few enough that each merge fits one
	// step at full budget, so the grown step can combine.
	recs := makeRecords(224*pageRecords, 97)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			cfg := SortConfig{
				Method: Quick, Merge: OptMerge, Adapt: DynSplit,
				PageRecords: pageRecords, MinPages: 3, BlockPages: 1, Workers: workers,
			}
			low := cfg.MinPages * workers // below every merge's need, even mid-drain
			budget := newCtxBudget(total)
			store := newSafeStore()

			const (
				waitMerge = iota
				waitShrink
				waitSplit
				waitGrow
				waitCombine
				waitAbort
				done
			)
			var (
				mu      sync.Mutex
				state   = waitMerge
				appends int
				splitAt int
				evs     []trace.Event
			)
			store.onAppend = func(RunID, int, int) {
				mu.Lock()
				defer mu.Unlock()
				if state == waitMerge {
					return
				}
				appends++
				switch {
				case state == waitShrink && appends >= shrinkAt:
					state = waitSplit
					budget.Resize(low)
				case state == waitGrow && appends >= splitAt+growAfter:
					state = waitCombine
					budget.Resize(total)
				}
			}
			env := &Env{
				In:    &sliceInput{pages: pagesOf(recs, pageRecords)},
				Store: store,
				Mem:   budget,
				Ctx:   context.Background(),
				Tracer: tracerFunc(func(ev trace.Event) {
					mu.Lock()
					defer mu.Unlock()
					evs = append(evs, ev)
					switch {
					case state == waitMerge && ev.Kind == trace.KindPhase && ev.Name == "merge":
						state = waitShrink
					case state == waitSplit && ev.Kind == trace.KindSplit:
						state, splitAt = waitGrow, appends
					case state == waitCombine && ev.Kind == trace.KindCombineBegin:
						state = waitAbort
						budget.Resize(low)
					case state == waitAbort && ev.Kind == trace.KindCombineAbort:
						state = done
						budget.Resize(total)
					}
				}),
			}
			res, err := ExternalSort(env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := store.records(res.Segments)
			checkSorted(t, got)
			checkPermutation(t, recs, got)

			mu.Lock()
			defer mu.Unlock()
			if state != done {
				t.Fatalf("budget script stalled in state %d: the sort never split, combined and aborted", state)
			}
			n := map[trace.Kind]int{}
			type span struct{ worker, step int }
			open := map[span]bool{}
			for _, ev := range evs {
				n[ev.Kind]++
				s := span{ev.Worker, ev.Step}
				switch ev.Kind {
				case trace.KindStepBegin:
					if open[s] {
						t.Fatalf("step %+v begun twice", s)
					}
					open[s] = true
				case trace.KindStepEnd, trace.KindCombineEnd:
					if !open[s] {
						t.Fatalf("%v closes step %+v that is not open", ev.Kind, s)
					}
					delete(open, s)
				}
			}
			if len(open) != 0 {
				t.Fatalf("steps never closed: %v", open)
			}
			// The Chrome trace of the same stream closes every merge-step
			// span it opens, the combine-absorbed one included.
			var buf bytes.Buffer
			ch := trace.NewChrome(&buf)
			for _, ev := range evs {
				ch.Emit(ev)
			}
			if err := ch.Close(); err != nil {
				t.Fatal(err)
			}
			var rows []struct{ Ph, ID string }
			if err := json.Unmarshal(buf.Bytes(), &rows); err != nil {
				t.Fatalf("chrome trace: %v", err)
			}
			spans := map[string]int{}
			for _, r := range rows {
				switch r.Ph {
				case "b":
					spans[r.ID]++
				case "e":
					spans[r.ID]--
				}
			}
			if len(spans) == 0 {
				t.Fatal("chrome trace has no merge-step spans")
			}
			for id, n := range spans {
				if n != 0 {
					t.Errorf("chrome span %s: %+d more b than e", id, n)
				}
			}
			s := res.Stats
			for _, c := range []struct {
				kind trace.Kind
				want int
			}{
				{trace.KindRun, s.Runs},
				{trace.KindStepEnd, s.MergeSteps},
				{trace.KindSplit, s.Splits},
				{trace.KindCombineEnd, s.Combines},
				{trace.KindSuspend, s.Suspensions},
			} {
				if n[c.kind] != c.want {
					t.Errorf("%v events = %d, stats say %d", c.kind, n[c.kind], c.want)
				}
			}
			if n[trace.KindCombineBegin] != n[trace.KindCombineEnd]+n[trace.KindCombineAbort] {
				t.Errorf("combine_begin %d != combine_end %d + combine_abort %d",
					n[trace.KindCombineBegin], n[trace.KindCombineEnd], n[trace.KindCombineAbort])
			}
			if n[trace.KindSuspend] != n[trace.KindResume] {
				t.Errorf("suspend %d != resume %d", n[trace.KindSuspend], n[trace.KindResume])
			}
			if s.Combines == 0 {
				t.Error("no combine completed")
			}
		})
	}
}
