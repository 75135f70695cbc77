package masort

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/memadapt/masort/internal/pagecodec"
	"github.com/memadapt/masort/trace"
)

// ErrMmapUnsupported is returned by NewMmapStore (and StoreConfig.Mmap) on
// platforms without memory-mapped file support. Test with
//
//	errors.Is(err, masort.ErrMmapUnsupported)
//
// and fall back to a FileStore.
var ErrMmapUnsupported = errors.New("masort: mmap-backed store unsupported on this platform")

// MmapStore is a disk-backed RunStore whose reads come straight out of a
// shared, read-only memory mapping of each run file: ReadAsync decodes the
// page extent in place, so Record.Payload sub-slices the mapping itself —
// zero copies between the page cache and the merge heap. Paging hardware
// carries the read path (the Virtual-Memory Powersort observation): a hot
// page costs a memory access, a cold one a major fault instead of an
// explicit read syscall.
//
// Writes are synchronous positional appends through the file descriptor
// (the mapping is read-only), retried per the configured RetryPolicy; the
// returned Token is already complete, and a terminal write failure rolls
// the run back to its durable prefix and breaks it exactly like FileStore.
// Checksummed framing and fault hooks pass through unchanged; injected
// read faults are applied to a private copy of the extent so a transient
// bit flip heals on the mandatory re-read instead of mutating the mapping.
//
// Buffer-ownership extension: pages returned by ReadAsync stay valid until
// the STORE is closed, not merely until the run is freed — Free unlinks
// the file but keeps its mapping alive, so zero-copy payloads held by a
// downstream merge never dangle. Close unmaps everything; do not retain
// records past it.
type MmapStore struct {
	dir string
	own bool

	sums   bool
	retry  RetryPolicy
	faults FaultHooks
	tr     trace.Tracer

	bufs bufPool // encode buffers

	mu      sync.Mutex
	runs    map[RunID]*mmapRun
	next    RunID
	retired [][]byte // mappings of freed runs, unmapped at Close
}

// mmapRun is one run file, its page index and its current mapping.
type mmapRun struct {
	mu      sync.Mutex
	f       *os.File
	offsets []int64  // byte offset of each durable page
	end     int64    // bytes durable on disk
	data    []byte   // read-only shared mapping of [0, len(data))
	old     [][]byte // outgrown mappings, kept alive until store Close
	werr    error    // sticky terminal write failure
	freed   bool
}

// NewMmapStore creates an mmap-backed run store in dir with the default
// configuration (see NewStoreConfig); dir is created if missing, and an
// empty dir means a fresh temporary directory removed on Close. Use
// StoreConfig.Mmap to configure checksums, retries, faults or tracing.
func NewMmapStore(dir string) (*MmapStore, error) {
	return NewStoreConfig().Mmap(dir)
}

func newMmapStore(dir string, cfg *StoreConfig) (*MmapStore, error) {
	if !mmapSupported {
		return nil, fmt.Errorf("%w", ErrMmapUnsupported)
	}
	own := false
	if dir == "" {
		d, err := os.MkdirTemp("", "masort-mmap-")
		if err != nil {
			return nil, err
		}
		dir = d
		own = true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &MmapStore{
		dir:    dir,
		own:    own,
		sums:   cfg.sums,
		retry:  cfg.retry,
		faults: cfg.faultsAt(0),
		tr:     cfg.tr,
		runs:   map[RunID]*mmapRun{},
	}, nil
}

// Dir returns the directory holding run files.
func (s *MmapStore) Dir() string { return s.dir }

// noteFault emits one retry-layer event (KindStoreRetry / KindStoreGaveUp).
func (s *MmapStore) noteFault(kind trace.Kind, name string, attempt int, bytes int64, err error) {
	if s.tr == nil {
		return
	}
	emitSafe(s.tr, trace.Event{
		Kind: kind, Time: time.Now(), Name: name,
		Pages: attempt, Bytes: bytes, Err: err.Error(),
	}, nil)
}

// Create opens a new empty run file.
func (s *MmapStore) Create() (RunID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.next
	s.next++
	f, err := os.Create(filepath.Join(s.dir, fmt.Sprintf("run-%06d.bin", id)))
	if err != nil {
		return 0, err
	}
	s.runs[id] = &mmapRun{f: f}
	return id, nil
}

func (s *MmapStore) run(id RunID) *mmapRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

// Append encodes pages and lands them with a synchronous positional write,
// retried per the store's policy. The returned token is already complete —
// with a synchronous write path, durability and visibility coincide. A
// terminal failure truncates the file back to the durable prefix, breaks
// the run, and is reported on the token (wrapping ErrStoreFailed).
func (s *MmapStore) Append(id RunID, pages []Page) (Token, error) {
	r := s.run(id)
	if r == nil {
		return nil, fmt.Errorf("masort: append to unknown run %d", id)
	}
	if len(pages) == 0 {
		return readyToken{}, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.werr != nil {
		return nil, fmt.Errorf("masort: append to broken run %d: %w", id, r.werr)
	}
	if r.freed {
		return nil, fmt.Errorf("masort: append to freed run %d", id)
	}
	start := r.end
	buf := s.bufs.getBuf(encodedSize(pages, s.sums))[:0]
	offs := make([]int64, 0, len(pages))
	for _, pg := range pages {
		offs = append(offs, start+int64(len(buf)))
		buf = appendPage(buf, pg, s.sums)
	}
	end := start + int64(len(buf))
	retries, err := s.writeBatch(r, start, buf)
	s.bufs.putBuf(buf)
	if err != nil {
		r.werr = err
		_ = r.f.Truncate(start)
		return readyToken{err: err, retries: retries}, nil
	}
	r.offsets = append(r.offsets, offs...)
	r.end = end
	return readyToken{retries: retries}, nil
}

// writeBatch lands one encoded batch at off, retrying transient failures
// per the store's policy (same taxonomy as FileStore: permanent errors
// fail fast, a positional retry overwrites any torn earlier attempt). It
// returns how many failed attempts were retried; the error, if any, is
// terminal and wraps ErrStoreFailed.
func (s *MmapStore) writeBatch(r *mmapRun, off int64, buf []byte) (retries int, err error) {
	budget := s.retry.attempts()
	for attempt := 1; ; attempt++ {
		err := s.writeOnce(r, off, buf)
		if err == nil {
			return attempt - 1, nil
		}
		if classifyIOErr(err) == classPermanent || attempt >= budget {
			s.noteFault(trace.KindStoreGaveUp, "write", attempt, int64(len(buf)), err)
			return attempt - 1, fmt.Errorf("%w: write of %d bytes at %d (attempt %d/%d): %w",
				ErrStoreFailed, len(buf), off, attempt, budget, err)
		}
		s.noteFault(trace.KindStoreRetry, "write", attempt, int64(len(buf)), err)
		if d := s.retry.backoff(attempt); d > 0 {
			time.Sleep(d)
		}
	}
}

// writeOnce performs one physical write attempt, routed through the fault
// hooks when installed (a hook-injected torn write lands its partial bytes
// for real, so rollback and retry see genuine on-disk state).
func (s *MmapStore) writeOnce(r *mmapRun, off int64, buf []byte) error {
	if s.faults != nil {
		if short, err := s.faults.BeforeWrite(off, buf); err != nil {
			if short > 0 {
				if short > len(buf) {
					short = len(buf)
				}
				_, _ = r.f.WriteAt(buf[:short], off)
			}
			return err
		}
	}
	_, err := r.f.WriteAt(buf, off)
	return err
}

// mmapPage is MmapStore's completed page token.
type mmapPage struct {
	pg      Page
	err     error
	retries int
}

func (t mmapPage) Wait() (Page, error) { return t.pg, t.err }

// Retries reports how many corruption re-reads settled the read.
func (t mmapPage) Retries() int { return t.retries }

// ReadAsync reads one page straight out of the run's mapping. The returned
// token is already complete: the "I/O" is a page-cache access (or a major
// fault on a cold page), and the decode is zero-copy — the page's payloads
// alias the mapping, which stays valid until the store is closed. A decode
// or checksum failure gets exactly one re-read before the read fails with
// ErrCorruptPage in the chain.
func (s *MmapStore) ReadAsync(id RunID, page int) PageToken {
	r := s.run(id)
	if r == nil {
		return mmapPage{err: fmt.Errorf("masort: read of unknown run %d", id)}
	}
	r.mu.Lock()
	if r.freed {
		r.mu.Unlock()
		return mmapPage{err: fmt.Errorf("masort: read of freed run %d", id)}
	}
	if r.werr != nil {
		err := r.werr
		r.mu.Unlock()
		return mmapPage{err: fmt.Errorf("masort: read of run %d page %d after write failure: %w", id, page, err)}
	}
	if page < 0 || page >= len(r.offsets) {
		r.mu.Unlock()
		return mmapPage{err: fmt.Errorf("masort: run %d has no page %d", id, page)}
	}
	off := r.offsets[page]
	end := r.end
	if page+1 < len(r.offsets) {
		end = r.offsets[page+1]
	}
	if int64(len(r.data)) < end {
		// The file grew past the mapping: map the current durable extent and
		// retire (never unmap) the outgrown mapping — zero-copy pages decoded
		// from it may still be live.
		m, err := mmapFile(r.f, end)
		if err != nil {
			r.mu.Unlock()
			return mmapPage{err: fmt.Errorf("masort: mapping run %d: %w: %w", id, ErrStoreFailed, err)}
		}
		if r.data != nil {
			r.old = append(r.old, r.data)
		}
		r.data = m
	}
	data := r.data
	r.mu.Unlock()

	retries := 0
	for {
		pg, err := s.decodeExtent(data, off, end)
		if err == nil {
			return mmapPage{pg: pg, retries: retries}
		}
		// Corruption gets exactly one re-read, like FileStore: an injected
		// in-transit fault heals on the second pass; a mismatch that persists
		// is on the medium (or in the mapping) itself.
		if retries < 1 {
			retries++
			s.noteFault(trace.KindStoreRetry, "read", retries, end-off, err)
			continue
		}
		s.noteFault(trace.KindStoreGaveUp, "read", 1+retries, end-off, err)
		return mmapPage{err: fmt.Errorf("masort: read run %d page %d: %w", id, page, err), retries: retries}
	}
}

// decodeExtent decodes the page extent [off, end) of one mapping. Without
// fault hooks the decode is zero-copy from the mapping; with hooks, the
// extent is copied first so injected corruption mutates the copy, never
// the shared mapping. Failures wrap ErrCorruptPage.
func (s *MmapStore) decodeExtent(data []byte, off, end int64) (Page, error) {
	ext := data[off:end:end]
	if s.faults != nil {
		cp := make([]byte, len(ext))
		copy(cp, ext)
		if err := s.faults.AfterRead(off, cp); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorruptPage, err)
		}
		ext = cp
	}
	var (
		pg  Page
		n   int
		err error
	)
	frame := getFrame()
	if s.sums {
		pg, _, n, err = pagecodec.DecodePageSum(frame, ext)
	} else {
		pg, _, n, err = pagecodec.DecodePage(frame, ext)
	}
	if err != nil || n != len(ext) {
		putFrame(frame)
		if err == nil {
			err = fmt.Errorf("page extent is %d bytes, decoded %d", len(ext), n)
		}
		return nil, fmt.Errorf("decode of %d-byte extent: %w: %w", len(ext), ErrCorruptPage, err)
	}
	return pg, nil
}

// Pages returns the number of pages appended so far.
func (s *MmapStore) Pages(id RunID) int {
	r := s.run(id)
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.offsets)
}

// Free removes the run and unlinks its file. Its mappings stay alive until
// Close, so pages already read from the run remain valid.
func (s *MmapStore) Free(id RunID) error {
	s.mu.Lock()
	r, ok := s.runs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("masort: free of unknown run %d", id)
	}
	delete(s.runs, id)
	s.mu.Unlock()
	return s.teardownRun(r)
}

// teardownRun closes and unlinks the run file and retires its mappings to
// the store (unmapped at Close).
func (s *MmapStore) teardownRun(r *mmapRun) error {
	r.mu.Lock()
	r.freed = true
	maps := r.old
	if r.data != nil {
		maps = append(maps, r.data)
	}
	r.old, r.data = nil, nil
	name := r.f.Name()
	err := r.f.Close()
	r.mu.Unlock()
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	if len(maps) > 0 {
		s.mu.Lock()
		s.retired = append(s.retired, maps...)
		s.mu.Unlock()
	}
	return err
}

// Live returns the number of unfreed runs.
func (s *MmapStore) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// Close frees every run, unmaps every mapping (created by reads of live
// and already-freed runs alike), and removes the directory if the store
// owns it. Records decoded from the store must not be used past Close.
func (s *MmapStore) Close() error {
	s.mu.Lock()
	var runs []*mmapRun
	for id, r := range s.runs {
		runs = append(runs, r)
		delete(s.runs, id)
	}
	s.mu.Unlock()
	var first error
	for _, r := range runs {
		if err := s.teardownRun(r); err != nil && first == nil {
			first = err
		}
	}
	s.mu.Lock()
	maps := s.retired
	s.retired = nil
	s.mu.Unlock()
	for _, m := range maps {
		if err := munmapBytes(m); err != nil && first == nil {
			first = err
		}
	}
	if s.own {
		if err := os.Remove(s.dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}
