// Package engine reproduces the engine-side emit patterns traceguard
// checks: guarded helpers, guarded call sites, and the pre-fix violations
// found in this repo.
package engine

import (
	"sync/atomic"
	"time"

	"trace"
)

// emitSafe mirrors the engine's guarded emit helper.
func emitSafe(t trace.Tracer, ev trace.Event, panics *atomic.Int64) {
	if t == nil {
		return
	}
	defer func() {
		if recover() != nil && panics != nil {
			panics.Add(1)
		}
	}()
	t.Emit(ev) // guarded: nil check + deferred recover
}

// opTrace mirrors the engine's per-operator observability context.
type opTrace struct {
	tr     trace.Tracer
	id     uint64
	panics atomic.Int64
}

// begin is the guarded shape: the nil receiver check dominates the Event
// literal.
func (t *opTrace) begin() {
	if t == nil {
		return
	}
	emitSafe(t.tr, trace.Event{Kind: 1, Time: time.Now(), Op: t.id}, &t.panics)
}

// tracedToken mirrors observe.go's pre-fix store-write measurement: the
// Event literal (and its time.Now argument) is built unconditionally, so
// the work runs even when the tracer is nil — the untraced path was only
// "free" by a construction-site invariant two files away.
type tracedToken struct {
	ot    *opTrace
	bytes int64
}

func (t *tracedToken) waitPreFix() {
	ot := t.ot
	emitSafe(ot.tr, trace.Event{ // want `trace\.Event constructed outside a tracer nil-check`
		Kind: 2, Time: time.Now(), Op: ot.id, Bytes: t.bytes,
	}, &ot.panics)
}

// waitFixed is the corrected shape: the literal sits under the tracer's
// nil check.
func (t *tracedToken) waitFixed() {
	ot := t.ot
	if ot.tr != nil {
		emitSafe(ot.tr, trace.Event{
			Kind: 2, Time: time.Now(), Op: ot.id, Bytes: t.bytes,
		}, &ot.panics)
	}
}

// convert is the constructor pattern: a function returning an Event is
// data transformation; its call sites own the guard.
func (t *opTrace) convert(kind int) trace.Event {
	return trace.Event{Kind: kind, Op: t.id}
}

// bareEmit calls an interface tracer with no helper at all.
func bareEmit(tr trace.Tracer, ev trace.Event) {
	tr.Emit(ev) // want `direct Tracer\.Emit call outside a guarded emit helper`
}

// env mirrors the core Env's observer hook.
type env struct {
	OnEvent func(trace.Event)
}

// deliver is the guarded hook invocation (the shape of core's Env.emit).
func (e *env) deliver(ev trace.Event) {
	defer func() {
		_ = recover()
	}()
	e.OnEvent(ev)
}

// deliverUnguarded invokes the hook with no recover: a panicking observer
// would kill the operation it is watching.
func (e *env) deliverUnguarded(ev trace.Event) {
	e.OnEvent(ev) // want `observer hook invoked without a deferred recover`
}
