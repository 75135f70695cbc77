package trace

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is a Tracer that aggregates the event stream into a lock-free
// registry of counters, histograms and gauges, and renders it in the
// Prometheus text exposition format. One Metrics instance is meant to live
// for the whole process and be shared by every operator, pool and store;
// Emit touches only atomics, so concurrent pooled workloads aggregate
// without contention.
//
// The counters use the same vocabulary as masort's Stats: for a single
// operator traced against a fresh registry, masort_runs_total,
// masort_merge_steps_total, masort_splits_total, masort_combines_total,
// masort_suspensions_total and the store byte counters equal the
// corresponding Result.Stats fields.
type Metrics struct {
	counters   []*counter
	byName     map[string]*counter
	hists      []*hist
	histByName map[string]*hist

	queueDepth atomic.Int64

	opsBegun sync.Map // op name -> *atomic.Int64
	opsDone  sync.Map
}

type counter struct {
	name, help string
	v          atomic.Int64
}

// histBounds are the histogram bucket upper bounds in seconds: exponential
// decades from 1µs to 10s, the span from an in-memory page copy to a badly
// stalled disk write.
var histBounds = [numBounds]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

const numBounds = 8

type hist struct {
	name, help string
	buckets    [numBounds + 1]atomic.Uint64 // +1: the +Inf bucket
	sumNanos   atomic.Int64
	count      atomic.Uint64
}

func (h *hist) observe(d time.Duration) {
	s := d.Seconds()
	// Smallest bucket whose upper bound covers s; past the last bound this
	// lands in the +Inf bucket.
	i := sort.SearchFloat64s(histBounds[:], s)
	h.buckets[i].Add(1)
	h.sumNanos.Add(int64(d))
	h.count.Add(1)
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	m := &Metrics{
		byName:     map[string]*counter{},
		histByName: map[string]*hist{},
	}
	c := func(name, help string) *counter {
		ct := &counter{name: name, help: help}
		m.counters = append(m.counters, ct)
		m.byName[name] = ct
		return ct
	}
	h := func(name, help string) *hist {
		ht := &hist{name: name, help: help}
		m.hists = append(m.hists, ht)
		m.histByName[name] = ht
		return ht
	}
	c("masort_runs_total", "Sorted runs produced by split phases.")
	c("masort_merge_steps_total", "Completed merge steps, including final ones.")
	c("masort_splits_total", "Merge steps split off by dynamic splitting.")
	c("masort_combines_total", "Step combines completed (drain + absorb).")
	c("masort_combine_aborts_total", "Combines aborted by a mid-drain shrink.")
	c("masort_suspensions_total", "Merge suspensions (budget below step need).")
	c("masort_resumes_total", "Merge resumptions after suspension.")
	c("masort_pool_admissions_total", "Operators admitted to a shared pool.")
	c("masort_pool_rejections_total", "Operators rejected by a saturated pool.")
	c("masort_pool_grants_total", "Page grants handed out by pools.")
	c("masort_pool_pages_granted_total", "Pages granted by pools over all grants.")
	c("masort_pool_waits_total", "Blocking operator waits on pool arbitration.")
	c("masort_pool_resizes_total", "Pool resizes.")
	c("masort_store_reads_total", "Run store page reads completed.")
	c("masort_store_writes_total", "Run store append batches completed.")
	c("masort_store_read_bytes_total", "Encoded bytes read from run stores.")
	c("masort_store_write_bytes_total", "Encoded bytes written to run stores.")
	c("masort_store_retries_total", "Store I/O attempts retried after a transient failure.")
	c("masort_store_giveups_total", "Store I/O operations that failed terminally.")
	h("masort_op_seconds", "Operator wall time (begin to end).")
	h("masort_pool_admission_wait_seconds", "Time queued before pool admission.")
	h("masort_pool_wait_seconds", "Time blocked in pool arbitration waits.")
	h("masort_store_read_seconds", "Page read latency, issue to completion.")
	h("masort_store_write_seconds", "Append batch latency, issue to durability.")
	return m
}

func (m *Metrics) add(name string, delta int64) {
	if ct := m.byName[name]; ct != nil {
		ct.v.Add(delta)
	}
}

func (m *Metrics) observe(name string, d time.Duration) {
	if ht := m.histByName[name]; ht != nil {
		ht.observe(d)
	}
}

func labeled(sm *sync.Map, op string) *atomic.Int64 {
	if op == "" {
		op = "unknown"
	}
	if v, ok := sm.Load(op); ok {
		return v.(*atomic.Int64)
	}
	v, _ := sm.LoadOrStore(op, new(atomic.Int64))
	return v.(*atomic.Int64)
}

// Emit implements Tracer.
func (m *Metrics) Emit(e Event) {
	switch e.Kind {
	case KindOpBegin:
		labeled(&m.opsBegun, e.Name).Add(1)
	case KindOpEnd:
		labeled(&m.opsDone, e.Name).Add(1)
		m.observe("masort_op_seconds", e.Dur)
	case KindRun:
		m.add("masort_runs_total", 1)
	case KindStepEnd:
		m.add("masort_merge_steps_total", 1)
	case KindSplit:
		m.add("masort_splits_total", 1)
	case KindCombineEnd:
		m.add("masort_combines_total", 1)
	case KindCombineAbort:
		m.add("masort_combine_aborts_total", 1)
	case KindSuspend:
		m.add("masort_suspensions_total", 1)
	case KindResume:
		m.add("masort_resumes_total", 1)
	case KindPoolAdmit:
		m.add("masort_pool_admissions_total", 1)
		m.observe("masort_pool_admission_wait_seconds", e.Dur)
	case KindPoolReject:
		m.add("masort_pool_rejections_total", 1)
	case KindPoolGrant:
		m.add("masort_pool_grants_total", 1)
		m.add("masort_pool_pages_granted_total", int64(e.Pages))
	case KindPoolWait:
		m.add("masort_pool_waits_total", 1)
		m.observe("masort_pool_wait_seconds", e.Dur)
	case KindPoolResize:
		m.add("masort_pool_resizes_total", 1)
	case KindStoreRead:
		m.add("masort_store_reads_total", 1)
		m.add("masort_store_read_bytes_total", e.Bytes)
		m.observe("masort_store_read_seconds", e.Dur)
	case KindStoreWrite:
		m.add("masort_store_writes_total", 1)
		m.add("masort_store_write_bytes_total", e.Bytes)
		m.observe("masort_store_write_seconds", e.Dur)
	case KindStoreQueue:
		m.queueDepth.Store(int64(e.Pages))
	case KindStoreRetry:
		m.add("masort_store_retries_total", 1)
	case KindStoreGaveUp:
		m.add("masort_store_giveups_total", 1)
	}
}

// Counter returns the current value of a counter by its full metric name
// (0 for unknown names) — the programmatic twin of the text exposition.
func (m *Metrics) Counter(name string) int64 {
	if ct := m.byName[name]; ct != nil {
		return ct.v.Load()
	}
	return 0
}

// HistogramCount returns the number of observations of a histogram by name.
func (m *Metrics) HistogramCount(name string) uint64 {
	if ht := m.histByName[name]; ht != nil {
		return ht.count.Load()
	}
	return 0
}

// Ops returns how many operators of the given kind began and completed.
func (m *Metrics) Ops(op string) (begun, done int64) {
	return labeled(&m.opsBegun, op).Load(), labeled(&m.opsDone, op).Load()
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (m *Metrics) WritePrometheus(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	writeLabeled := func(name, help string, sm *sync.Map) {
		p("# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		var ops []string
		sm.Range(func(k, _ any) bool { ops = append(ops, k.(string)); return true })
		sort.Strings(ops)
		for _, op := range ops {
			v, _ := sm.Load(op)
			p("%s{op=%q} %d\n", name, op, v.(*atomic.Int64).Load())
		}
	}
	writeLabeled("masort_ops_begun_total", "Operators started, by kind.", &m.opsBegun)
	writeLabeled("masort_ops_completed_total", "Operators completed, by kind.", &m.opsDone)
	for _, ct := range m.counters {
		p("# HELP %s %s\n# TYPE %s counter\n%s %d\n", ct.name, ct.help, ct.name, ct.name, ct.v.Load())
	}
	p("# HELP masort_store_write_queue_depth Async writer queue depth (last sample).\n")
	p("# TYPE masort_store_write_queue_depth gauge\nmasort_store_write_queue_depth %d\n", m.queueDepth.Load())
	for _, ht := range m.hists {
		p("# HELP %s %s\n# TYPE %s histogram\n", ht.name, ht.help, ht.name)
		cum := uint64(0)
		for i, ub := range histBounds {
			cum += ht.buckets[i].Load()
			p("%s_bucket{le=%q} %d\n", ht.name, formatBound(ub), cum)
		}
		cum += ht.buckets[len(histBounds)].Load()
		p("%s_bucket{le=\"+Inf\"} %d\n", ht.name, cum)
		p("%s_sum %g\n", ht.name, time.Duration(ht.sumNanos.Load()).Seconds())
		p("%s_count %d\n", ht.name, ht.count.Load())
	}
	return err
}

func formatBound(ub float64) string {
	return fmt.Sprintf("%g", ub)
}

// Handler returns an http.Handler serving the registry at its mount point —
// wire it to /metrics and point a Prometheus scraper at it.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.WritePrometheus(w)
	})
}
