package masort

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/memadapt/masort/internal/pagecodec"
	"github.com/memadapt/masort/trace"
)

// DefaultReadConcurrency is how many page reads a FileStore executes in
// parallel unless StoreConfig.WithReadConcurrency says otherwise.
// External-memory merges read one page from each of up to fan-in runs at a
// time; a handful of outstanding positional reads keeps the device busy
// without thrashing it.
const DefaultReadConcurrency = 8

// writeQueueDepth bounds how many encoded write batches may be queued per
// run before Append blocks (back-pressure against a slow disk).
const writeQueueDepth = 4

// FileStore is a disk-backed RunStore: each run is one file in a directory.
// Pages are framed by internal/pagecodec and an in-memory page index is
// kept per run.
//
// The store is genuinely asynchronous on both paths:
//
//   - Append encodes pages into a pooled buffer, advances the page index,
//     and hands the bytes to a per-run background writer; the returned Token
//     completes when the batch is durable. Encoding happens on the caller's
//     goroutine, so the page slices may be reused as soon as the Token
//     completes (the store never retains them).
//   - ReadAsync returns immediately; the page is fetched by a bounded pool
//     of workers using positional ReadAt on the exact page extent, so N
//     merge inputs are read in parallel and reads never contend with the
//     writer for a file offset. Decoding is zero-copy: Record.Payload
//     sub-slices the read buffer (see the package's buffer-ownership notes).
//
// A read of a page whose write is still queued waits for durability first,
// so the RunStore contract ("readable once the Append token completes")
// holds even under concurrent use across runs.
//
// The store does not assume a perfect disk. Pages are framed with a
// CRC32-Castagnoli checksum by default (StoreConfig.WithPageChecksums), a
// corrupt page is re-read once before the read fails with ErrCorruptPage in
// the chain, and StoreConfig.WithRetry turns transient I/O errors into
// bounded retries with backoff. Errors that survive retry — or are
// classified permanent up front, like ENOSPC — wrap ErrStoreFailed; a write
// that fails terminally breaks the whole run (rollback to the durable
// prefix, every subsequent Append, Wait and read on it reports the failure).
type FileStore struct {
	dir string
	own bool // remove dir on Close

	readSem chan struct{} // bounds concurrently executing page reads
	bufs    bufPool       // encode / read buffers

	// sums selects the checksummed page framing (on by default). All runs
	// of one store share a framing; toggling it on a store with live runs
	// would make them undecodable, hence construction-time only.
	sums bool

	// retry is the store's I/O retry policy; the zero value means a single
	// attempt. Construction-time only, so writer goroutines read it safely.
	retry RetryPolicy

	// faults, when non-nil, intercepts the physical I/O for fault
	// injection; see FaultHooks. Construction-time only.
	faults FaultHooks

	// tr, when set, receives a queue-depth sample (KindStoreQueue) on every
	// enqueue/dequeue of the async write pipeline, summed across runs, plus
	// KindStoreRetry / KindStoreGaveUp events from the retry layer. Set at
	// construction (StoreConfig.WithTracer) so the writer goroutines see it
	// safely; qdepth is the running depth.
	tr     trace.Tracer
	qdepth atomic.Int64

	mu   sync.Mutex
	runs map[RunID]*fileRun
	next RunID
}

// RetryPolicy bounds how a FileStore retries transiently failing I/O.
// Backoff between the attempts of one operation doubles each time —
// Backoff, 2*Backoff, 4*Backoff, ... — with no jitter, so fault-injection
// tests are exactly reproducible.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per operation (first try
	// included). Values below 1 mean a single attempt, i.e. no retry.
	MaxAttempts int

	// Backoff is the delay before the first retry; zero retries
	// immediately.
	Backoff time.Duration
}

// attempts returns the per-operation attempt budget.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoff returns the delay before retrying after the attempt-th failure
// (1-based): Backoff doubled per failed attempt, jitter-free.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	if attempt > 1+30 { // clamp the shift; nobody backs off for 2^30 periods
		attempt = 1 + 30
	}
	return p.Backoff << (attempt - 1)
}

// FaultHooks intercepts a FileStore's physical I/O for deterministic fault
// injection (see internal/faultinject for the scriptable implementation).
// Implementations must be safe for concurrent use: writes arrive from
// per-run writer goroutines and reads from the read worker pool.
type FaultHooks interface {
	// BeforeWrite is consulted before each WriteAt attempt of an encoded
	// batch at off. Returning a non-nil error fails the attempt; when
	// short > 0 the store first lands the leading short bytes — a torn
	// write, so rollback and retry paths see real partial data on disk.
	BeforeWrite(off int64, b []byte) (short int, err error)

	// AfterRead is consulted after each ReadAt attempt has filled b and may
	// fail the attempt or mutate b in place (bit rot for the checksum layer
	// to catch).
	AfterRead(off int64, b []byte) error
}

// errClass is the retry layer's error taxonomy.
type errClass uint8

const (
	// classTransient errors may succeed on retry (EINTR, injected
	// timeouts); unknown errors default here because a bounded retry of a
	// truly broken device only delays the inevitable failure slightly.
	classTransient errClass = iota
	// classPermanent errors will not improve with retry: out of space,
	// read-only filesystem, or anything self-reporting Temporary() == false.
	classPermanent
)

// classifyIOErr buckets an I/O error for the retry policy: ENOSPC / EROFS
// are permanent, errors exposing Temporary() bool (net.Error style, and
// faultinject's injected errors) speak for themselves, everything else is
// presumed transient.
func classifyIOErr(err error) errClass {
	if errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EROFS) {
		return classPermanent
	}
	var t interface{ Temporary() bool }
	if errors.As(err, &t) {
		if t.Temporary() {
			return classTransient
		}
		return classPermanent
	}
	return classTransient
}

// noteQueue moves the sampled write-queue depth by delta and emits it.
func (s *FileStore) noteQueue(delta int64) {
	if s.tr == nil {
		return
	}
	d := s.qdepth.Add(delta)
	emitSafe(s.tr, trace.Event{Kind: trace.KindStoreQueue, Time: time.Now(), Pages: int(d)}, nil)
}

// noteFault emits one retry-layer event (KindStoreRetry / KindStoreGaveUp):
// name is "read" or "write", attempt the 1-based attempt that failed,
// bytes the extent size.
func (s *FileStore) noteFault(kind trace.Kind, name string, attempt int, bytes int64, err error) {
	if s.tr == nil {
		return
	}
	emitSafe(s.tr, trace.Event{
		Kind: kind, Time: time.Now(), Name: name,
		Pages: attempt, Bytes: bytes, Err: err.Error(),
	}, nil)
}

// fileRun is one run file plus its page index and write pipeline. offsets
// and end are updated synchronously by Append (so Pages and read extents are
// immediately consistent); durable trails them, advanced by the background
// writer as batches land on disk.
type fileRun struct {
	f *os.File

	mu      sync.Mutex
	cond    sync.Cond // signaled when durable, werr or closing change
	offsets []int64   // byte offset of each page
	end     int64     // offset past the last indexed page
	durable int64     // bytes confirmed on disk
	werr    error     // sticky background-write error (run is broken)
	closing bool      // Free/Close in progress: reject new work

	wq      chan fsWriteJob
	wdone   chan struct{}  // writer goroutine exited
	readers sync.WaitGroup // in-flight page reads
	appends sync.WaitGroup // Append calls between index update and enqueue
}

type fsWriteJob struct {
	off int64
	buf []byte
	tok *fsToken
}

// fsToken is an asynchronous write completion handle. err and retries are
// written by the run's writer goroutine before done is released; Wait
// orders the reads after it. A WaitGroup rather than a channel keeps the
// token one allocation.
type fsToken struct {
	done    sync.WaitGroup
	err     error
	retries int
}

func (t *fsToken) Wait() error { t.done.Wait(); return t.err }

// Retries reports how many failed write attempts were retried before the
// batch settled. Valid after Wait returns.
func (t *fsToken) Retries() int { return t.retries }

// fsPageToken is an asynchronous read completion handle, released like
// fsToken.
type fsPageToken struct {
	done    sync.WaitGroup
	pg      Page
	err     error
	retries int
}

func (t *fsPageToken) Wait() (Page, error) { t.done.Wait(); return t.pg, t.err }

// Retries reports how many failed read attempts (transient errors and
// corruption re-reads) were retried before the read settled. Valid after
// Wait returns.
func (t *fsPageToken) Retries() int { return t.retries }

// NewFileStore creates a run store in dir; dir is created if missing. If
// dir is empty, a fresh temporary directory is used and removed on Close.
// It is NewStoreConfig().File(dir); configure checksums, retries, faults or
// tracing through the StoreConfig builder.
func NewFileStore(dir string) (*FileStore, error) {
	return NewStoreConfig().File(dir)
}

// newFileStore builds a FileStore from a StoreConfig; device is the store's
// index inside a striped parent (0 for standalone stores) and selects its
// fault hooks.
func newFileStore(dir string, cfg *StoreConfig, device int) (*FileStore, error) {
	own := false
	if dir == "" {
		d, err := os.MkdirTemp("", "masort-runs-")
		if err != nil {
			return nil, err
		}
		dir = d
		own = true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileStore{
		dir:     dir,
		own:     own,
		runs:    map[RunID]*fileRun{},
		readSem: make(chan struct{}, cfg.readConc),
		sums:    cfg.sums,
		retry:   cfg.retry,
		faults:  cfg.faultsAt(device),
		tr:      cfg.tr,
	}, nil
}

// Dir returns the directory holding run files.
func (s *FileStore) Dir() string { return s.dir }

// Close frees every run and removes the directory if the store owns it.
func (s *FileStore) Close() error {
	s.mu.Lock()
	var runs []*fileRun
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
	if s.own {
		if err := os.Remove(s.dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Create opens a new empty run file and starts its background writer.
func (s *FileStore) Create() (RunID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.next
	s.next++
	f, err := os.Create(filepath.Join(s.dir, fmt.Sprintf("run-%06d.bin", id)))
	if err != nil {
		return 0, err
	}
	r := &fileRun{
		f:     f,
		wq:    make(chan fsWriteJob, writeQueueDepth),
		wdone: make(chan struct{}),
	}
	r.cond.L = &r.mu
	s.runs[id] = r
	go s.runWriter(r)
	return id, nil
}

// runWriter is the per-run background writer: it lands encoded batches with
// positional writes (retried per the store's policy) and advances the
// durability watermark. When a batch fails terminally it rolls the run back
// to the last durable page boundary — index entries at or beyond the failed
// batch are dropped and the file is truncated to match — and fails that
// batch's token and every later one with the ErrStoreFailed chain.
func (s *FileStore) runWriter(r *fileRun) {
	defer close(r.wdone)
	for job := range r.wq {
		r.mu.Lock()
		werr := r.werr
		r.mu.Unlock()
		if werr != nil {
			job.tok.err = werr
			job.tok.done.Done()
			s.bufs.putBuf(job.buf)
			s.noteQueue(-1)
			continue
		}
		retries, err := s.writeBatch(r, job.off, job.buf)
		r.mu.Lock()
		if err != nil {
			r.werr = err
			// Roll back: the index must only describe durable pages.
			i := sort.Search(len(r.offsets), func(i int) bool { return r.offsets[i] >= job.off })
			r.offsets = r.offsets[:i]
			r.end = job.off
			_ = r.f.Truncate(job.off)
		} else {
			r.durable = job.off + int64(len(job.buf))
		}
		r.cond.Broadcast()
		r.mu.Unlock()
		job.tok.retries = retries
		job.tok.err = err
		job.tok.done.Done()
		s.bufs.putBuf(job.buf)
		s.noteQueue(-1)
	}
}

// writeBatch lands one encoded batch at off, retrying transient failures
// per the store's policy. A positional WriteAt retry overwrites whatever a
// torn earlier attempt left behind, so retries are idempotent. The
// returned error, if any, is terminal and wraps ErrStoreFailed plus the
// last cause.
func (s *FileStore) writeBatch(r *fileRun, off int64, buf []byte) (retries int, err error) {
	budget := s.retry.attempts()
	for attempt := 1; ; attempt++ {
		err = s.writeOnce(r, off, buf)
		if err == nil {
			return retries, nil
		}
		if classifyIOErr(err) == classPermanent || attempt >= budget || r.isClosing() {
			s.noteFault(trace.KindStoreGaveUp, "write", attempt, int64(len(buf)), err)
			return retries, fmt.Errorf("%w: write of %d bytes at %d (attempt %d/%d): %w",
				ErrStoreFailed, len(buf), off, attempt, budget, err)
		}
		retries++
		s.noteFault(trace.KindStoreRetry, "write", attempt, int64(len(buf)), err)
		if d := s.retry.backoff(attempt); d > 0 {
			time.Sleep(d)
		}
	}
}

// writeOnce performs one physical write attempt, routed through the fault
// hooks when installed. A hook-injected torn write lands its partial bytes
// for real, so the rollback truncate and retry overwrite are exercised
// against genuine on-disk state.
func (s *FileStore) writeOnce(r *fileRun, off int64, buf []byte) error {
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

// isClosing reports whether the run is being torn down — retry loops check
// it between attempts so Free/Close never waits out a backoff schedule.
func (r *fileRun) isClosing() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closing
}

func (s *FileStore) run(id RunID) *fileRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

// Append encodes pages and queues them for the run's background writer. The
// page index advances immediately; the returned token completes once the
// bytes are durable. The caller may reuse the page slices after the token
// completes — the store keeps only the encoded bytes.
func (s *FileStore) Append(id RunID, pages []Page) (Token, error) {
	r := s.run(id)
	if r == nil {
		return nil, fmt.Errorf("masort: append to unknown run %d", id)
	}
	if len(pages) == 0 {
		return readyToken{}, nil
	}
	r.mu.Lock()
	if r.werr != nil {
		err := r.werr
		r.mu.Unlock()
		return nil, fmt.Errorf("masort: append to broken run %d: %w", id, err)
	}
	if r.closing {
		r.mu.Unlock()
		return nil, fmt.Errorf("masort: append to freed run %d", id)
	}
	start := r.end
	buf := s.bufs.getBuf(encodedSize(pages, s.sums))[:0]
	for _, pg := range pages {
		r.offsets = append(r.offsets, start+int64(len(buf)))
		buf = appendPage(buf, pg, s.sums)
	}
	r.end = start + int64(len(buf))
	// Registered under the lock so teardownRun cannot close wq between the
	// closing check above and the send below.
	r.appends.Add(1)
	r.mu.Unlock()
	tok := &fsToken{}
	tok.done.Add(1)
	s.noteQueue(1) // before the send: the depth must never read negative
	r.wq <- fsWriteJob{off: start, buf: buf, tok: tok}
	r.appends.Done()
	return tok, nil
}

// ReadAsync starts reading one page and returns immediately. The read runs
// on the store's bounded worker pool with a positional ReadAt of the exact
// page extent; it waits for the page's write to be durable first, so reads
// may overlap the background writer freely.
func (s *FileStore) ReadAsync(id RunID, page int) PageToken {
	r := s.run(id)
	if r == nil {
		return readyPage{err: fmt.Errorf("masort: read of unknown run %d", id)}
	}
	r.mu.Lock()
	if r.closing {
		r.mu.Unlock()
		return readyPage{err: fmt.Errorf("masort: read of freed run %d", id)}
	}
	if werr := r.werr; werr != nil {
		// The run is broken: even its durable prefix must not be served, or
		// a merge would consume half a run and only then learn it failed.
		r.mu.Unlock()
		return readyPage{err: fmt.Errorf("masort: read of run %d page %d after write failure: %w", id, page, werr)}
	}
	if page < 0 || page >= len(r.offsets) {
		r.mu.Unlock()
		return readyPage{err: fmt.Errorf("masort: run %d has no page %d", id, page)}
	}
	off := r.offsets[page]
	end := r.end
	if page+1 < len(r.offsets) {
		end = r.offsets[page+1]
	}
	r.readers.Add(1)
	r.mu.Unlock()
	tok := &fsPageToken{}
	tok.done.Add(1)
	go s.readPage(r, id, page, off, end, tok)
	return tok
}

func (s *FileStore) readPage(r *fileRun, id RunID, page int, off, end int64, tok *fsPageToken) {
	defer r.readers.Done()
	defer tok.done.Done()
	// Wait for the page's bytes to be durable (its write may still be in the
	// background writer's queue). A write failure anywhere in the run wakes
	// and fails this read even if its own bytes are durable: the run is
	// broken and must not be half-consumed.
	r.mu.Lock()
	for r.durable < end && r.werr == nil && !r.closing {
		r.cond.Wait()
	}
	switch {
	case r.werr != nil:
		err := r.werr
		r.mu.Unlock()
		tok.err = fmt.Errorf("masort: read of run %d page %d after write failure: %w", id, page, err)
		return
	case r.closing:
		r.mu.Unlock()
		tok.err = fmt.Errorf("masort: read of freed run %d", id)
		return
	}
	r.mu.Unlock()

	s.readSem <- struct{}{}
	defer func() { <-s.readSem }()

	budget := s.retry.attempts()
	ioAttempt, rereads := 0, 0
	for {
		pg, err := s.readOnce(r, off, end)
		if err == nil {
			tok.pg = pg
			return
		}
		size := end - off
		if errors.Is(err, ErrCorruptPage) {
			// Corruption gets exactly one re-read, whatever the retry
			// policy: the bytes may have been mangled in transit (bus,
			// controller, injected bit rot), in which case a second read
			// heals it. A second mismatch means the medium itself is bad.
			if rereads < 1 && !r.isClosing() {
				rereads++
				tok.retries++
				s.noteFault(trace.KindStoreRetry, "read", rereads, size, err)
				continue
			}
			s.noteFault(trace.KindStoreGaveUp, "read", 1+rereads, size, err)
			tok.err = fmt.Errorf("masort: read run %d page %d: %w", id, page, err)
			return
		}
		ioAttempt++
		if classifyIOErr(err) == classTransient && ioAttempt < budget && !r.isClosing() {
			tok.retries++
			s.noteFault(trace.KindStoreRetry, "read", ioAttempt, size, err)
			if d := s.retry.backoff(ioAttempt); d > 0 {
				time.Sleep(d)
			}
			continue
		}
		s.noteFault(trace.KindStoreGaveUp, "read", ioAttempt, size, err)
		tok.err = fmt.Errorf("masort: read run %d page %d (attempt %d/%d): %w: %w",
			id, page, ioAttempt, budget, ErrStoreFailed, err)
		return
	}
}

// readOnce performs one physical read-and-decode attempt of the page
// extent [off, end). A decode or checksum failure returns an error
// wrapping ErrCorruptPage; a ReadAt failure returns the raw cause for the
// caller to classify.
func (s *FileStore) readOnce(r *fileRun, off, end int64) (Page, error) {
	buf := s.bufs.getBuf(int(end - off))
	if _, err := r.f.ReadAt(buf, off); err != nil {
		s.bufs.putBuf(buf)
		return nil, err
	}
	if s.faults != nil {
		if err := s.faults.AfterRead(off, buf); err != nil {
			s.bufs.putBuf(buf)
			return nil, err
		}
	}
	var (
		pg    Page
		alias int
		n     int
		err   error
	)
	frame := getFrame()
	if s.sums {
		pg, alias, n, err = pagecodec.DecodePageSum(frame, buf)
	} else {
		pg, alias, n, err = pagecodec.DecodePage(frame, buf)
	}
	if err != nil || n != len(buf) {
		if err == nil {
			err = fmt.Errorf("page extent is %d bytes, decoded %d", len(buf), n)
		}
		// The message references len(buf), so build it before recycling.
		err = fmt.Errorf("decode of %d-byte extent: %w: %w", len(buf), ErrCorruptPage, err)
		putFrame(frame)
		s.bufs.putBuf(buf)
		return nil, err
	}
	if alias == 0 {
		// No payload bytes escaped into the page: the buffer is dead and can
		// be recycled now. Otherwise the decoded records own it.
		s.bufs.putBuf(buf)
	}
	return pg, nil
}

// Pages returns the number of pages appended so far (durable or queued).
func (s *FileStore) Pages(id RunID) int {
	r := s.run(id)
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.offsets)
}

// Free removes a run and its file, draining its write pipeline first.
func (s *FileStore) Free(id RunID) error {
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

// teardownRun quiesces a run's pipeline and deletes its file: in-flight
// Append enqueues finish, queued writes are drained (their tokens resolve
// normally), waiting readers are woken with an error, and only then is the
// file closed and removed. Removal is attempted even if the close fails,
// so an owned store directory can still be emptied.
func (s *FileStore) teardownRun(r *fileRun) error {
	r.mu.Lock()
	r.closing = true
	r.cond.Broadcast()
	r.mu.Unlock()
	r.appends.Wait() // the writer keeps draining until wq closes, so this cannot hang
	close(r.wq)
	<-r.wdone
	r.readers.Wait()
	name := r.f.Name()
	err := r.f.Close()
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	return err
}

// Live returns the number of unfreed runs.
func (s *FileStore) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}
