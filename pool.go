package masort

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/memadapt/masort/internal/memarb"
	"github.com/memadapt/masort/trace"
)

// ErrPoolSaturated is returned by Sort, Join, GroupBy and Merge when a
// Pool configured with RejectWhenFull cannot admit the operator: granting
// even the per-operator floor would break the floor guarantee of the
// operators already running.
var ErrPoolSaturated = errors.New("masort: pool saturated, operator not admitted")

// AdmissionPolicy selects what happens when a new operator arrives at a
// Pool that cannot cover one more per-operator floor.
type AdmissionPolicy int

const (
	// QueueWhenFull (the default) queues the operator until enough
	// operators finish (or the pool grows); the wait is cancelable through
	// the operator's context.
	QueueWhenFull AdmissionPolicy = iota
	// RejectWhenFull fails the operator immediately with ErrPoolSaturated.
	RejectWhenFull
)

// PoolOption configures NewPool.
type PoolOption func(*Pool)

// WithPoolFloor sets the per-operator guaranteed minimum in pages
// (default 3 — two merge inputs plus an output, the least any operator
// needs to progress; values below 3 are raised to 3). Operators whose
// configuration implies a larger minimum (a wide Join, say) still progress
// — the engine treats its own minimum as a lower bound on the entitlement
// — but choose a floor covering it to keep reservations from promising
// away pages the operator will effectively use anyway.
func WithPoolFloor(pages int) PoolOption {
	return func(p *Pool) {
		if pages < minFloor {
			pages = minFloor
		}
		p.pol.Floor = pages
	}
}

// WithAdmissionPolicy sets the Pool's admission behavior (default
// QueueWhenFull).
func WithAdmissionPolicy(a AdmissionPolicy) PoolOption {
	return func(p *Pool) { p.admission = a }
}

// WithPoolTracer attaches a tracer to the pool: admissions (with queue
// wait), rejections, page grants, blocking arbitration waits and resizes
// are emitted as they happen, attributed to the operator involved. The
// tracer is fixed at construction; share the operators' trace.Metrics here
// to see arbitration and adaptation in one registry.
func WithPoolTracer(t Tracer) PoolOption {
	return func(p *Pool) { p.tr = t }
}

const minFloor = 3

// Pool is a process-wide shared memory budget: the wall-clock counterpart
// of the simulator's buffer manager (internal/bufmgr.SharedPool), and the
// multiprogramming setting the paper's introduction motivates — many
// adaptive operators competing for one fluctuating region of buffer pages.
//
// Operators attach with WithPool(p); while they run, the pool arbitrates
// its Total() pages among them by equal share: each of N operators is
// entitled to 1/N of whatever the application's reservations have not
// taken, never less than the per-operator floor, with the integer-division
// remainder assigned to the longest-running operators (so entitlements are
// deterministic and the pool is fully divided). Every registration,
// completion, reservation and resize shifts the entitlements; operators
// observe the change at their next adaptation point exactly as with a
// resized Budget, and give pages back as fast as their phase permits.
//
// The application competes through Reserve and Release — the "competing
// memory requests" of the paper's protocol. Reservations are granted FIFO,
// all-at-once, capped so the running operators' floors stay coverable, and
// block until pages have actually been yielded back.
//
// Admission control guards the floor guarantee: an operator is admitted
// only when one more floor fits (see AdmissionPolicy). A Pool must not be
// nil; the zero value is not usable — construct with NewPool. All methods
// are safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	cond *sync.Cond

	pol       memarb.Policy
	admission AdmissionPolicy
	tr        Tracer // fixed at construction; emits happen outside mu

	// Conservation: Σ granted + reserved + free == total at all times;
	// pending is a promise against future free pages, not a holding. free
	// may go negative transiently after a shrinking Resize — the deficit
	// is repaid as operators yield down to their new entitlements.
	free     int
	reserved int
	pending  int // pages promised to queued reservations

	ops   []*poolOp // registration order — oldest first
	queue []*reservation

	rejectedOps int
	rejectedRes int
}

type reservation struct {
	want    int
	granted bool
}

// NewPool creates a pool of total pages. The total must cover at least one
// per-operator floor; smaller values are raised to it.
func NewPool(total int, opts ...PoolOption) *Pool {
	p := &Pool{pol: memarb.Policy{Total: total, Floor: minFloor}}
	p.cond = sync.NewCond(&p.mu)
	for _, fn := range opts {
		if fn != nil {
			fn(p)
		}
	}
	if p.pol.Total < p.pol.Floor {
		p.pol.Total = p.pol.Floor
	}
	p.free = p.pol.Total
	return p
}

// Total returns the pool size in pages.
func (p *Pool) Total() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pol.Total
}

// Floor returns the per-operator guaranteed minimum.
func (p *Pool) Floor() int { return p.pol.Floor }

// Ops returns the number of operators currently admitted.
func (p *Pool) Ops() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ops)
}

// Reserved returns the pages currently held by application reservations.
func (p *Pool) Reserved() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reserved
}

// RejectedOps and RejectedReservations count admission failures
// (RejectWhenFull) and zero-grant reservations since the pool was created.
func (p *Pool) RejectedOps() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rejectedOps
}

// RejectedReservations counts Reserve calls that returned 0 for lack of
// headroom.
func (p *Pool) RejectedReservations() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rejectedRes
}

// Resize changes the pool total. Growing takes effect immediately; the new
// pages join the free pool and entitlements rise. Shrinking never breaks
// the admitted operators' floors or the pages already granted to
// reservations — the requested total is raised to that minimum if needed —
// and takes effect as operators yield down to their reduced entitlements.
// Resize returns the total actually set.
func (p *Pool) Resize(total int) int {
	set := p.resize(total)
	if p.tr != nil {
		emitSafe(p.tr, trace.Event{Kind: trace.KindPoolResize, Time: time.Now(), Pages: set}, nil)
	}
	return set
}

func (p *Pool) resize(total int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	min := len(p.ops)*p.pol.Floor + p.reserved + p.pending
	if min < p.pol.Floor {
		min = p.pol.Floor
	}
	if total < min {
		total = min
	}
	p.free += total - p.pol.Total
	p.pol.Total = total
	p.tryGrant()
	p.cond.Broadcast()
	return total
}

// Reserve takes up to want pages away from the pool on behalf of the
// application — the competing memory request of the paper's reservation
// protocol. The demand is capped at the pool's current headroom (the
// admitted operators keep their floors, earlier reservations keep their
// promises); if no headroom exists the reservation is rejected and Reserve
// returns 0 immediately. Otherwise Reserve blocks until the capped amount
// has been granted in full — operators shed pages at their next adaptation
// points — or ctx is canceled, and returns the pages actually held, which
// the caller must eventually give back with Release.
func (p *Pool) Reserve(ctx context.Context, want int) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if h := p.pol.Headroom(len(p.ops), p.reserved, p.pending); want > h {
		want = h
	}
	if want <= 0 {
		p.rejectedRes++
		return 0, nil
	}
	r := &reservation{want: want}
	p.queue = append(p.queue, r)
	p.pending += want
	p.tryGrant()
	// Entitlements just dropped: wake operators so they start yielding.
	p.cond.Broadcast()
	stop := context.AfterFunc(ctx, p.wake)
	defer stop()
	for !r.granted {
		if err := ctx.Err(); err != nil {
			p.dropReservation(r)
			return 0, err
		}
		p.cond.Wait()
	}
	return want, nil
}

// dropReservation removes a still-pending reservation after its context is
// canceled. Grant may have raced with cancellation; then the pages are
// handed back instead.
func (p *Pool) dropReservation(r *reservation) {
	if r.granted {
		p.releaseLocked(r.want)
		return
	}
	for i, q := range p.queue {
		if q == r {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			break
		}
	}
	p.pending -= r.want
	p.tryGrant() // later reservations may now fit
	p.cond.Broadcast()
}

// Release returns n reserved pages to the pool. Releasing more than is
// currently reserved is clamped.
func (p *Pool) Release(n int) {
	if n <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.releaseLocked(n)
}

func (p *Pool) releaseLocked(n int) {
	if n > p.reserved {
		n = p.reserved
	}
	p.reserved -= n
	p.free += n
	p.tryGrant()
	p.cond.Broadcast()
}

// tryGrant satisfies queued reservations FIFO, each all-at-once, from the
// free pool. Callers hold p.mu.
func (p *Pool) tryGrant() {
	for len(p.queue) > 0 && p.free >= p.queue[0].want {
		r := p.queue[0]
		p.queue = p.queue[1:]
		p.free -= r.want
		p.reserved += r.want
		p.pending -= r.want
		r.granted = true
	}
}

// wake broadcasts under the lock; used by context-cancelable waits (see
// Budget.wake for the ordering argument).
func (p *Pool) wake() {
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// admit registers a new operator, waiting (QueueWhenFull) or failing
// (RejectWhenFull) while one more floor does not fit in what application
// reservations have not taken — an admitted operator's floor must be
// genuinely acquirable, not promised away. op is the operator's trace id
// (0 when untraced), attributed to the admission events.
func (p *Pool) admit(ctx context.Context, op uint64) (*poolOp, error) {
	h, err := p.register(ctx, op)
	if p.tr != nil {
		switch {
		case err == nil:
			emitSafe(p.tr, trace.Event{Kind: trace.KindPoolAdmit, Time: time.Now(),
				Op: op, Dur: h.stats.AdmissionWait}, nil)
		case errors.Is(err, ErrPoolSaturated):
			emitSafe(p.tr, trace.Event{Kind: trace.KindPoolReject, Time: time.Now(),
				Op: op, Err: err.Error()}, nil)
		}
	}
	return h, err
}

func (p *Pool) register(ctx context.Context, op uint64) (*poolOp, error) {
	start := time.Now()
	stop := context.AfterFunc(ctx, p.wake)
	defer stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.pol.CanAdmitWith(len(p.ops), p.reserved, p.pending) {
		if p.admission == RejectWhenFull {
			p.rejectedOps++
			return nil, ErrPoolSaturated
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p.cond.Wait()
	}
	h := &poolOp{p: p, op: op}
	h.stats.AdmissionWait = time.Since(start)
	p.ops = append(p.ops, h)
	// Every sibling's entitlement just shrank.
	p.cond.Broadcast()
	return h, nil
}

// unregister removes a finished operator, returning any pages it still
// holds (the engine yields everything on success and on abort; this is
// belt-and-braces) and re-equalizing the survivors' shares.
func (p *Pool) unregister(h *poolOp) PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	if h.granted > 0 {
		p.free += h.granted
		h.granted = 0
	}
	for i, o := range p.ops {
		if o == h {
			p.ops = append(p.ops[:i], p.ops[i+1:]...)
			break
		}
	}
	p.tryGrant()
	p.cond.Broadcast()
	return h.stats
}

// PoolStats reports one operator's interaction with its Pool: how memory
// arbitration treated it, complementing the algorithmic adaptation counts
// in Stats (splits, combines, suspensions).
type PoolStats struct {
	// AdmissionWait is how long the operator was queued before admission.
	AdmissionWait time.Duration

	// Grants counts Acquire calls that obtained pages; PagesGranted totals
	// the pages obtained over the operator's lifetime (re-acquisitions
	// after shedding count again).
	Grants       int
	PagesGranted int

	// MaxGranted is the high-water mark of pages held at once.
	MaxGranted int

	// Waits counts blocking waits on the pool (entitlement below what the
	// operator needed — suspensions, empty-pool stalls); WaitTime is the
	// total time spent in them.
	Waits    int
	WaitTime time.Duration
}

// poolOp is one operator's view of a Pool. It implements core.Broker, so
// the engine adapts to pool arbitration exactly as it adapts to a resized
// Budget.
type poolOp struct {
	p       *Pool
	op      uint64 // trace id of the operator, 0 when untraced
	granted int
	stats   PoolStats
}

// index returns the operator's registration rank (0 = oldest). Callers
// hold p.mu.
func (h *poolOp) index() int {
	for i, o := range h.p.ops {
		if o == h {
			return i
		}
	}
	return 0
}

// target computes the entitlement. Callers hold p.mu.
func (h *poolOp) target() int {
	return h.p.pol.ShareAt(h.index(), len(h.p.ops), h.p.reserved, h.p.pending)
}

// Granted returns the pages the operator holds.
func (h *poolOp) Granted() int {
	h.p.mu.Lock()
	defer h.p.mu.Unlock()
	return h.granted
}

// Target returns the operator's current entitlement.
func (h *poolOp) Target() int {
	h.p.mu.Lock()
	defer h.p.mu.Unlock()
	return h.target()
}

// Pressure returns max(0, Granted-Target).
func (h *poolOp) Pressure() int {
	h.p.mu.Lock()
	defer h.p.mu.Unlock()
	if pr := h.granted - h.target(); pr > 0 {
		return pr
	}
	return 0
}

// Acquire grants up to n additional pages, bounded by the entitlement and
// the free pool.
func (h *poolOp) Acquire(n int) int {
	got := h.acquire(n)
	if got > 0 && h.p.tr != nil {
		emitSafe(h.p.tr, trace.Event{Kind: trace.KindPoolGrant, Time: time.Now(),
			Op: h.op, Pages: got}, nil)
	}
	return got
}

func (h *poolOp) acquire(n int) int {
	h.p.mu.Lock()
	defer h.p.mu.Unlock()
	if room := h.target() - h.granted; n > room {
		n = room
	}
	if n > h.p.free {
		n = h.p.free
	}
	if n <= 0 {
		return 0
	}
	h.granted += n
	h.p.free -= n
	h.stats.Grants++
	h.stats.PagesGranted += n
	if h.granted > h.stats.MaxGranted {
		h.stats.MaxGranted = h.granted
	}
	return n
}

// Yield returns n pages to the pool, waking queued reservations and
// siblings that may grow into them.
func (h *poolOp) Yield(n int) {
	h.p.mu.Lock()
	defer h.p.mu.Unlock()
	if n > h.granted {
		n = h.granted
	}
	if n <= 0 {
		return
	}
	h.granted -= n
	h.p.free += n
	h.p.tryGrant()
	h.p.cond.Broadcast()
}

// WaitTarget blocks until the entitlement reaches n (clamped to the pool
// total, so the wait terminates once reservations drain and siblings
// finish) or ctx is canceled; a nil ctx waits uncancelably.
func (h *poolOp) WaitTarget(ctx context.Context, n int) error {
	if ctx != nil {
		stop := context.AfterFunc(ctx, h.p.wake)
		defer stop()
	}
	waited, err := h.waitTargetLocked(ctx, n)
	h.emitWait(waited)
	return err
}

// WaitChange blocks until the arbitration state changes or ctx is
// canceled; a nil ctx waits uncancelably.
func (h *poolOp) WaitChange(ctx context.Context) error {
	if ctx != nil {
		stop := context.AfterFunc(ctx, h.p.wake)
		defer stop()
	}
	waited, err := h.waitChangeLocked(ctx)
	h.emitWait(waited)
	return err
}

func (h *poolOp) waitTargetLocked(ctx context.Context, n int) (time.Duration, error) {
	h.p.mu.Lock()
	defer h.p.mu.Unlock()
	// The clamp to the pool total is re-applied every iteration: Resize may
	// shrink the total mid-wait, and a stale bound would leave the operator
	// waiting for an entitlement that can no longer exist.
	need := func() int {
		if t := h.p.pol.Total; n > t {
			return t
		}
		return n
	}
	if h.target() >= need() {
		return 0, nil
	}
	h.stats.Waits++
	start := time.Now()
	defer func() { h.stats.WaitTime += time.Since(start) }()
	for h.target() < need() {
		if err := ctxErr(ctx); err != nil {
			return time.Since(start), err
		}
		h.p.cond.Wait()
	}
	return time.Since(start), nil
}

func (h *poolOp) waitChangeLocked(ctx context.Context) (time.Duration, error) {
	h.p.mu.Lock()
	defer h.p.mu.Unlock()
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	h.stats.Waits++
	start := time.Now()
	h.p.cond.Wait()
	d := time.Since(start)
	h.stats.WaitTime += d
	return d, ctxErr(ctx)
}

// emitWait reports a completed blocking wait (zero-duration "waits" — the
// fast path where the target was already satisfied — are not waits and emit
// nothing).
func (h *poolOp) emitWait(d time.Duration) {
	if d > 0 && h.p.tr != nil {
		emitSafe(h.p.tr, trace.Event{Kind: trace.KindPoolWait, Time: time.Now(),
			Op: h.op, Dur: d}, nil)
	}
}
