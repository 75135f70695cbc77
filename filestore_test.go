package masort

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/memadapt/masort/internal/pagecodec"
)

func TestFileStoreCreatesAndCleansDir(t *testing.T) {
	store, err := NewFileStore("")
	if err != nil {
		t.Fatal(err)
	}
	dir := store.Dir()
	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}
	id, _ := store.Create()
	if _, err := store.Append(id, []Page{{{Key: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("owned temp dir should be removed, stat err = %v", err)
	}
}

func TestFileStoreExplicitDirSurvivesClose(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("explicit dir should survive Close: %v", err)
	}
}

func TestFileStoreUnknownRunErrors(t *testing.T) {
	store, _ := NewFileStore(t.TempDir())
	defer store.Close()
	if _, err := store.Append(99, nil); err == nil {
		t.Fatal("append to unknown run")
	}
	if _, err := store.ReadAsync(99, 0).Wait(); err == nil {
		t.Fatal("read of unknown run")
	}
	if err := store.Free(99); err == nil {
		t.Fatal("free of unknown run")
	}
	if store.Pages(99) != 0 {
		t.Fatal("pages of unknown run")
	}
}

func TestFileStoreEmptyPayloadAndLargeRecords(t *testing.T) {
	store, _ := NewFileStore(t.TempDir())
	defer store.Close()
	id, _ := store.Create()
	big := make([]byte, 70000) // exceeds the bufio reader size
	for i := range big {
		big[i] = byte(i)
	}
	pages := []Page{{
		{Key: 1},
		{Key: 2, Payload: []byte{}},
		{Key: 3, Payload: big},
	}}
	tok, err := store.Append(id, pages)
	if err != nil {
		t.Fatal(err)
	}
	if err := tok.Wait(); err != nil {
		t.Fatal(err)
	}
	pg, err := store.ReadAsync(id, 0).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(pg) != 3 || len(pg[2].Payload) != 70000 || pg[2].Payload[69999] != big[69999] {
		t.Fatalf("round trip corrupted: %d records", len(pg))
	}
	if len(pg[1].Payload) != 0 {
		t.Fatal("empty payload mangled")
	}
}

// Property: any records survive a FileStore round trip byte-for-byte.
func TestFileStoreRoundTripProperty(t *testing.T) {
	store, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	f := func(keys []uint64, payloads [][]byte) bool {
		var pg Page
		for i, k := range keys {
			var p []byte
			if i < len(payloads) {
				p = payloads[i]
			}
			pg = append(pg, Record{Key: k, Payload: p})
		}
		if len(pg) == 0 {
			return true
		}
		id, err := store.Create()
		if err != nil {
			return false
		}
		tok, err := store.Append(id, []Page{pg})
		if err != nil || tok.Wait() != nil {
			return false
		}
		got, err := store.ReadAsync(id, 0).Wait()
		if err != nil || len(got) != len(pg) {
			return false
		}
		for i := range pg {
			if got[i].Key != pg[i].Key || string(got[i].Payload) != string(pg[i].Payload) {
				return false
			}
		}
		return store.Free(id) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRunIteratorAcrossPages(t *testing.T) {
	store := NewMemStore()
	id, _ := store.Create()
	_, _ = store.Append(id, []Page{
		{{Key: 1}, {Key: 2}},
		{}, // empty page must be skipped gracefully
		{{Key: 3}},
	})
	it := &runIterator{store: store, id: id, pages: 3}
	recs, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Key != 3 {
		t.Fatalf("iterated %+v", recs)
	}
}

func TestRunIteratorPropagatesStoreError(t *testing.T) {
	store := NewMemStore()
	id, _ := store.Create()
	_, _ = store.Append(id, []Page{{{Key: 1}}})
	it := &runIterator{store: store, id: id, pages: 5} // lies about page count
	_, err := Drain(it)
	if err == nil {
		t.Fatal("read past end must surface an error")
	}
}

// TestFileStoreAppendRollbackOnWriteFailure exercises the mid-run write
// failure path: the failed batch (and everything after it) must be rolled
// back — index trimmed, file truncated — and the whole run sticky-broken:
// appends and reads (even of the durable prefix) report the failure, Free
// still works.
func TestFileStoreAppendRollbackOnWriteFailure(t *testing.T) {
	var fail atomic.Bool
	errDiskFull := errors.New("injected: disk full")
	store, err := NewStoreConfig().WithFaults(hookFuncs{
		beforeWrite: func(off int64, b []byte) (int, error) {
			if fail.Load() {
				return -1, errDiskFull
			}
			return -1, nil
		},
	}).File(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	id, _ := store.Create()
	tok, err := store.Append(id, []Page{{{Key: 1}}, {{Key: 2}}})
	if err != nil || tok.Wait() != nil {
		t.Fatal("good append failed")
	}

	fail.Store(true)
	tok2, err := store.Append(id, []Page{{{Key: 3}}, {{Key: 4}}})
	if err != nil {
		t.Fatal(err) // the failure surfaces through the token, not Append
	}
	if err := tok2.Wait(); !errors.Is(err, errDiskFull) || !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("token error = %v, want injected cause and ErrStoreFailed in the chain", err)
	}

	// Index rolled back to the durable prefix.
	if got := store.Pages(id); got != 2 {
		t.Fatalf("Pages = %d after rollback, want 2", got)
	}
	// The broken run refuses reads even of its durable prefix: a consumer
	// must learn about the failure before consuming half a run.
	if _, err := store.ReadAsync(id, 0).Wait(); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("read of broken run = %v, want ErrStoreFailed chain", err)
	}
	// File truncated to match: no torn bytes past the last durable page.
	fi, err := os.Stat(filepath.Join(store.Dir(), fmt.Sprintf("run-%06d.bin", id)))
	if err != nil {
		t.Fatal(err)
	}
	var wantSize int64
	for _, pg := range []Page{{{Key: 1}}, {{Key: 2}}} {
		wantSize += int64(pagecodec.EncodedSizeSum(pg))
	}
	if fi.Size() != wantSize {
		t.Fatalf("file size %d after rollback, want %d", fi.Size(), wantSize)
	}
	// Rolled-back pages are gone and the run is sticky-broken for appends.
	if _, err := store.ReadAsync(id, 2).Wait(); err == nil {
		t.Fatal("read of rolled-back page must fail")
	}
	fail.Store(false)
	if _, err := store.Append(id, []Page{{{Key: 5}}}); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("append to broken run = %v, want ErrStoreFailed chain", err)
	}
	if err := store.Free(id); err != nil {
		t.Fatal(err)
	}
}

// TestFileStoreReadWaitsForBackgroundWrite issues reads before waiting the
// append token: the read path must wait for the page's durability rather
// than reading torn or missing bytes.
func TestFileStoreReadWaitsForBackgroundWrite(t *testing.T) {
	store, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	id, _ := store.Create()
	var pages []Page
	for i := 0; i < 50; i++ {
		pages = append(pages, Page{{Key: uint64(i), Payload: []byte{byte(i)}}})
	}
	tok, err := store.Append(id, pages)
	if err != nil {
		t.Fatal(err)
	}
	// Reads race the background writer.
	var toks []PageToken
	for i := range pages {
		toks = append(toks, store.ReadAsync(id, i))
	}
	for i, pt := range toks {
		pg, err := pt.Wait()
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if len(pg) != 1 || pg[0].Key != uint64(i) || pg[0].Payload[0] != byte(i) {
			t.Fatalf("page %d corrupted: %+v", i, pg)
		}
	}
	if err := tok.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestFileStoreConcurrentAccess drives many runs from many goroutines —
// appends, reads racing the background writer, and frees — under -race.
// Calls for any single run stay on one goroutine (the RunStore contract);
// the store itself must tolerate everything else happening at once.
func TestFileStoreConcurrentAccess(t *testing.T) {
	store, err := NewStoreConfig().WithReadConcurrency(4).File(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 99))
			for iter := 0; iter < 15; iter++ {
				id, err := store.Create()
				if err != nil {
					errs <- err
					return
				}
				n := 1 + rng.IntN(8)
				var pages []Page
				for p := 0; p < n; p++ {
					pg := Page{{Key: uint64(p), Payload: []byte{byte(g), byte(p)}}}
					pages = append(pages, pg)
				}
				tok, err := store.Append(id, pages)
				if err != nil {
					errs <- err
					return
				}
				// Half the time read before the token completes (racing the
				// writer), half after.
				if rng.IntN(2) == 0 {
					if err := tok.Wait(); err != nil {
						errs <- err
						return
					}
				}
				for p := 0; p < n; p++ {
					pg, err := store.ReadAsync(id, p).Wait()
					if err != nil {
						errs <- err
						return
					}
					if pg[0].Key != uint64(p) || pg[0].Payload[1] != byte(p) {
						errs <- fmt.Errorf("goroutine %d run %d page %d corrupted: %+v", g, id, p, pg)
						return
					}
				}
				if err := tok.Wait(); err != nil {
					errs <- err
					return
				}
				if err := store.Free(id); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if store.Live() != 0 {
		t.Fatalf("%d runs leaked", store.Live())
	}
}

// TestFileStoreZeroCopyPayloadOwnership documents the zero-copy decode
// contract: payloads of one read alias a single buffer, remain valid while
// retained, and two reads of the same page never share buffers.
func TestFileStoreZeroCopyPayloadOwnership(t *testing.T) {
	store, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	id, _ := store.Create()
	pg := Page{
		{Key: 1, Payload: []byte("first")},
		{Key: 2, Payload: []byte("second")},
	}
	tok, _ := store.Append(id, []Page{pg})
	if err := tok.Wait(); err != nil {
		t.Fatal(err)
	}
	a, err := store.ReadAsync(id, 0).Wait()
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.ReadAsync(id, 0).Wait()
	if err != nil {
		t.Fatal(err)
	}
	// Two reads must be independent: mutating one page's payload buffer (a
	// contract violation by the caller, done here deliberately) must not be
	// visible through the other read.
	a[0].Payload[0] = 'X'
	if b[0].Payload[0] != 'f' {
		t.Fatal("separate reads share a decode buffer")
	}
	if string(b[1].Payload) != "second" {
		t.Fatalf("payload corrupted: %q", b[1].Payload)
	}
}

// TestIteratorAbandonedReadAhead closes a result while the run iterator
// still has a read-ahead in flight: Free must drain it without deadlock.
func TestIteratorAbandonedReadAhead(t *testing.T) {
	store, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	recs := make([]Record, 4096)
	for i := range recs {
		recs[i] = Record{Key: uint64(len(recs) - i)}
	}
	res, err := Sort(context.Background(), NewSliceIterator(recs),
		WithStore(store), WithBudget(NewBudget(8)), WithPageRecords(64))
	if err != nil {
		t.Fatal(err)
	}
	it := res.Iterator()
	if _, ok, err := it.Next(); !ok || err != nil {
		t.Fatalf("first record: ok=%v err=%v", ok, err)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	if store.Live() != 0 {
		t.Fatalf("%d runs leaked", store.Live())
	}
}
