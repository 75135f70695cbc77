package masort

import (
	"context"
	"sync"
)

// Budget arbitrates memory between a running sort (or join) and the rest of
// the application, in logical pages. It implements the operator side of the
// paper's buffer-manager reservation protocol: the operator acquires pages
// up to the current target and yields them back when the target shrinks.
//
// Grow, Shrink and Resize are safe to call from any goroutine while a sort
// is running; changes take effect at the sort's next adaptation point
// (page-granular). The target never drops below the floor — by default 3
// pages (two merge inputs plus an output, the minimum any step needs to
// progress), raisable with NewBudgetWithFloor when the workload's real
// minimum is higher (a wide Join's final step, a shared Pool's
// per-operator floor).
type Budget struct {
	mu      sync.Mutex
	cond    *sync.Cond
	target  int
	granted int
	floor   int
}

// NewBudget creates a budget of the given number of pages with the default
// 3-page floor.
func NewBudget(pages int) *Budget {
	return NewBudgetWithFloor(pages, 3)
}

// NewBudgetWithFloor creates a budget of the given number of pages whose
// target never drops below floor. Floors below 3 are raised to 3 (an
// operator cannot progress on less), and pages below the floor are raised
// to it. Use a floor matching the workload's true minimum — e.g. the floor
// of a Pool the budget must coexist with, or a Join's final-step fan-in —
// so that Shrink and Resize cannot strand the operator below it.
func NewBudgetWithFloor(pages, floor int) *Budget {
	if floor < 3 {
		floor = 3
	}
	b := &Budget{floor: floor}
	b.cond = sync.NewCond(&b.mu)
	if pages < b.floor {
		pages = b.floor
	}
	b.target = pages
	return b
}

// Floor returns the guaranteed minimum below which the target never drops.
func (b *Budget) Floor() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.floor
}

// Resize sets the target to pages (raised to the floor if below it — so
// negative or zero values mean "shrink to minimum") and wakes the operator.
func (b *Budget) Resize(pages int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if pages < b.floor {
		pages = b.floor
	}
	b.target = pages
	b.cond.Broadcast()
}

// Grow adds n pages to the target. Non-positive n is ignored — use Shrink
// to reduce the target.
func (b *Budget) Grow(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n > 0 {
		b.target += n
		b.cond.Broadcast()
	}
}

// Shrink removes n pages from the target (floored). Non-positive n is
// ignored — use Grow to raise the target.
func (b *Budget) Shrink(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n <= 0 {
		return
	}
	b.target -= n
	if b.target < b.floor {
		b.target = b.floor
	}
	b.cond.Broadcast()
}

// Target returns the pages the operator is currently entitled to.
func (b *Budget) Target() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.target
}

// Granted returns the pages the operator currently holds.
func (b *Budget) Granted() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.granted
}

// Acquire grants the operator up to n additional pages within the target.
func (b *Budget) Acquire(n int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	room := b.target - b.granted
	if n > room {
		n = room
	}
	if n < 0 {
		n = 0
	}
	b.granted += n
	return n
}

// Yield returns n pages.
func (b *Budget) Yield(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n > b.granted {
		n = b.granted
	}
	if n > 0 {
		b.granted -= n
		b.cond.Broadcast()
	}
}

// Pressure returns how many pages the operator holds above the target.
func (b *Budget) Pressure() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if p := b.granted - b.target; p > 0 {
		return p
	}
	return 0
}

// wake broadcasts under the lock. Used by the cancelable waits: taking
// the mutex orders the broadcast against a waiter that is between its
// cancellation check and cond.Wait, so a cancel can never be missed.
func (b *Budget) wake() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// WaitTarget blocks until the target is at least n or ctx is canceled,
// returning ctx's error in the latter case; a nil ctx waits uncancelably.
// It makes suspension waits cancelable: a suspended sort whose context is
// canceled returns promptly instead of sleeping until the budget happens
// to be restored.
func (b *Budget) WaitTarget(ctx context.Context, n int) error {
	if ctx != nil {
		stop := context.AfterFunc(ctx, b.wake)
		defer stop()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.target < n {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		b.cond.Wait()
	}
	return nil
}

// WaitChange blocks until the budget changes or ctx is canceled, returning
// ctx's error in the latter case; a nil ctx waits uncancelably.
func (b *Budget) WaitChange(ctx context.Context) error {
	if ctx != nil {
		stop := context.AfterFunc(ctx, b.wake)
		defer stop()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := ctxErr(ctx); err != nil {
		return err
	}
	b.cond.Wait()
	return ctxErr(ctx)
}

// ctxErr is ctx.Err() for a possibly nil ctx.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
