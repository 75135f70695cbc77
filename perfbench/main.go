// Command perfbench is the repository's end-to-end benchmark. Each workload
// generates its input from a seed, sorts it through masort.Sort on a
// disk-backed FileStore, drains and verifies the Result, and prints the
// metrics BENCHMARK.json names as one JSON object on the last line of
// standard output. Build and run it from the repository root:
//
//	bash perfbench/run.sh --workload keys-serial --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced sorts. With
// --trace 1 it alternates untraced and traced sorts and reports the
// per-layer metrics, measured at the library's public seams, plus the
// tracing overhead. Any sort that fails or whose output does not verify
// makes the command exit 1. The benchmark needs Linux (getrusage, statfs).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"github.com/memadapt/masort"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "how long to keep sorting")
		traced  = flag.Int("trace", 0, "1 reports per-layer metrics from traced sorts")
		work    = flag.String("work", ".bench_build", "directory for run files and span output")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, work string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if err := platformCheck(); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(work, "sort-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	b := &bench{w: w, seed: seed, tmp: tmp}
	rep, err := b.measure(time.Duration(seconds*float64(time.Second)), traced)
	if err != nil {
		return err
	}
	meta := b.machine()
	line, err := json.Marshal(map[string]any{
		"machine": meta, "workload": w.name, "seed": seed, "trace": traced, "sorts": rep.Attempted,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if traced && b.lastTrace != nil {
		if err := writeSpans(filepath.Join(work, "spans-"+w.name+".json"), meta, b.lastTrace); err != nil {
			return err
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !rep.Correct {
		return fmt.Errorf("%d of %d sorts failed: %v", rep.Failed, rep.Attempted, b.firstErr)
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench runs one workload's sorts and keeps what the report needs.
type bench struct {
	w    workload
	seed uint64
	tmp  string
	in   *input

	attempted, failed int
	firstErr          error
	// counts of the first sort; serial sorts of one input must repeat them.
	ref       *counts
	lastTrace *recorder
}

// Minimum sorts per run, so every median has several samples.
const (
	minSorts = 3
	minPairs = 2
)

// measure sorts until d has passed and reduces the samples to the
// report's metrics. Every sort is preceded by a timed set-up, so set-up is
// sampled under the same conditions as the sorts.
func (b *bench) measure(d time.Duration, traced bool) (*report, error) {
	var setupS []float64
	setup := func() error {
		s, err := b.setup()
		setupS = append(setupS, s)
		return err
	}
	// One unrecorded set-up and sort first, so heap growth and the page
	// cache settle before anything is timed. The sort is still verified.
	if err := setup(); err != nil {
		return nil, err
	}
	setupS = setupS[:0]
	b.sortOnce(false)
	warm := b.attempted
	var plain, withTrace []sample
	deadline := time.Now().Add(d)
	for {
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		if s, ok := b.sortOnce(false); ok {
			plain = append(plain, s)
		}
		if traced {
			if err := setup(); err != nil {
				return nil, err
			}
			if s, ok := b.sortOnce(true); ok {
				withTrace = append(withTrace, s)
			}
		}
		n, need := b.attempted-warm, minSorts
		if traced {
			n, need = n/2, minPairs
		}
		if n >= need && time.Now().Add(time.Since(t0)).After(deadline) {
			break
		}
	}
	rep := &report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	if len(plain) == 0 || (traced && len(withTrace) == 0) {
		return rep, nil
	}
	if traced {
		b.layerMetrics(rep.Metrics, plain, withTrace)
	} else {
		b.endToEnd(rep.Metrics, plain, setupS)
	}
	return rep, nil
}

// setup makes the input and its reference fingerprint, and opens and
// closes a store in a fresh directory, as a sort needs; it returns how long
// that took. It first collects the previous sort's garbage, so neither the
// set-up nor the sort after it pays for that.
func (b *bench) setup() (float64, error) {
	runtime.GC()
	t0 := time.Now()
	dir, err := os.MkdirTemp(b.tmp, "setup-")
	if err != nil {
		return 0, err
	}
	store, err := masort.NewFileStore(dir)
	if err != nil {
		return 0, err
	}
	b.in = newInput(b.w, b.seed)
	if err := store.Close(); err != nil {
		return 0, err
	}
	if err := os.Remove(dir); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// counts are a sort's operation counts; a serial sort of one input repeats
// them exactly.
type counts struct {
	compares, runs, steps, extraReads, splits, combines int64
	writeAmp                                            float64
}

func (s sample) counts() counts {
	st := s.stats
	return counts{
		compares: s.counters.Compares, runs: int64(st.Runs), steps: int64(st.MergeSteps),
		extraReads: int64(st.ExtraMergeReads), splits: int64(st.Splits), combines: int64(st.Combines),
		writeAmp: ratio(st.RunPagesWritten+st.MergePagesWritten, st.PagesIn),
	}
}

// sample is what one sort measured.
type sample struct {
	sortS, wallS, cpuS float64
	allocBytes         uint64
	gcCycles           uint32
	gcPauseS           float64
	stats              masort.Stats
	counters           masort.Counters
	inputRecords       int
	rec                *recorder // traced sorts only
}

// sortOnce sorts the input once, drains and verifies the output, and
// checks the store is empty afterwards. A failure is counted and reported
// with ok=false.
func (b *bench) sortOnce(traced bool) (sample, bool) {
	b.attempted++
	s, err := b.sortVerified(traced)
	if err == nil && b.w.workers == 0 {
		if c := s.counts(); b.ref == nil {
			b.ref = &c
		} else if c != *b.ref {
			err = fmt.Errorf("serial sort counts %+v differ from the first sort's %+v", c, *b.ref)
		}
	}
	if err != nil {
		b.failed++
		if b.firstErr == nil {
			b.firstErr = err
		}
		return s, false
	}
	if traced {
		b.lastTrace = s.rec
	}
	return s, true
}

func (b *bench) sortVerified(traced bool) (s sample, err error) {
	dir, err := os.MkdirTemp(b.tmp, "run-")
	if err != nil {
		return s, err
	}
	fs, err := masort.NewFileStore(dir)
	if err != nil {
		return s, err
	}
	defer func() {
		if cerr := fs.Close(); err == nil {
			err = cerr
		}
		if rerr := os.Remove(dir); err == nil {
			err = rerr
		}
	}()
	budget := masort.NewBudget(b.w.budget)
	var store masort.RunStore = fs
	var bs *benchStore
	if traced || b.w.shrink != nil {
		bs = &benchStore{RunStore: fs, budget: budget, base: b.w.budget, sched: b.w.shrink}
		store = bs
	}
	opts := []masort.Option{masort.WithBudget(budget), masort.WithStore(store)}
	if b.w.workers > 0 {
		opts = append(opts, masort.WithWorkers(b.w.workers))
	}
	var it masort.Iterator = b.in.iter()
	var tin *tracedInput
	if traced {
		s.rec = newRecorder(budget)
		bs.rec = s.rec
		tin = &tracedInput{it: it, rec: s.rec}
		it = tin
		opts = append(opts, masort.WithEvents(s.rec.onEvent))
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	res, err := masort.Sort(context.Background(), it, opts...)
	t1 := time.Now()
	if err != nil {
		return s, fmt.Errorf("sort: %w", err)
	}
	if bs != nil {
		bs.stopSchedule()
	}
	var v verifier
	out := res.Iterator()
	for {
		r, ok, err := out.Next()
		if err != nil {
			res.Close()
			return s, fmt.Errorf("drain: %w", err)
		}
		if !ok {
			break
		}
		v.add(r)
	}
	t2 := time.Now()
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	if err := res.Close(); err != nil {
		return s, fmt.Errorf("close result: %w", err)
	}
	if n := fs.Live(); n != 0 {
		return s, fmt.Errorf("%d runs still live after Close", n)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		return s, fmt.Errorf("%d files left in the store directory after Close (%v)", len(left), err)
	}
	if err := v.check(b.in.want); err != nil {
		return s, err
	}

	s.sortS, s.wallS = t1.Sub(t0).Seconds(), t2.Sub(t0).Seconds()
	s.cpuS = (cpu1 - cpu0).Seconds()
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.gcCycles = m1.NumGC - m0.NumGC
	s.gcPauseS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
	s.stats, s.counters = res.Stats, res.Counters
	if traced {
		s.rec.add(spSort, s.rec.since(t0), s.rec.since(t1))
		s.rec.add(spDrain, s.rec.since(t1), s.rec.since(t2))
		s.inputRecords = tin.records
	}
	return s, nil
}

// endToEnd fills the untraced metrics: medians over the run's sorts.
func (b *bench) endToEnd(m map[string]metric, ss []sample, setupS []float64) {
	mb := float64(b.in.bytes) / 1e6
	m["throughput_mb_s"] = metric{median(ss, func(s sample) float64 { return mb / s.wallS }), "MB/s"}
	m["sort_s"] = metric{median(ss, func(s sample) float64 { return s.sortS }), "s"}
	m["cpu_s"] = metric{median(ss, func(s sample) float64 { return s.cpuS }), "s"}
	m["alloc_bytes_per_input_byte"] = metric{median(ss, func(s sample) float64 {
		return float64(s.allocBytes) / float64(b.in.bytes)
	}), "B/B"}
	m["write_amplification"] = metric{median(ss, func(s sample) float64 { return s.counts().writeAmp }), "ratio"}
	m["success_ratio"] = metric{1 - float64(b.failed)/float64(b.attempted), "ratio"}
	m["setup_s"] = metric{medianOf(setupS), "s"}
}

// layerMetrics fills the per-layer metrics: medians over the traced sorts,
// and the tracing overhead against the untraced sorts run alongside them.
func (b *bench) layerMetrics(m map[string]metric, plain, traced []sample) {
	lts := make([]layerTimes, len(traced))
	for i, s := range traced {
		lts[i] = s.rec.times()
	}
	set := func(name, unit string, f func(s sample, lt layerTimes) float64) {
		vals := make([]float64, len(traced))
		for i, s := range traced {
			vals[i] = f(s, lts[i])
		}
		m[name] = metric{medianOf(vals), unit}
	}
	perRecord := func(n int64, s sample) float64 { return float64(n) / float64(s.stats.TuplesIn) }

	set("input.pull_s", "s", func(_ sample, lt layerTimes) float64 { return lt.inputPull })
	set("input.records", "count", func(s sample, _ layerTimes) float64 { return float64(s.inputRecords) })

	set("split.wall_s", "s", func(_ sample, lt layerTimes) float64 { return lt.splitWall })
	set("split.self_s", "s", func(_ sample, lt layerTimes) float64 { return lt.splitSelf })
	set("split.runs", "count", func(s sample, _ layerTimes) float64 { return float64(s.stats.Runs) })
	set("split.run_pages_mean", "pages", func(s sample, _ layerTimes) float64 {
		return ratio(s.stats.RunPagesWritten, s.stats.Runs)
	})
	set("core.compares_per_record", "count", func(s sample, _ layerTimes) float64 {
		return perRecord(s.counters.Compares, s)
	})
	set("core.moves_per_record", "count", func(s sample, _ layerTimes) float64 {
		return perRecord(s.counters.TupleMoves, s)
	})

	set("merge.wall_s", "s", func(_ sample, lt layerTimes) float64 { return lt.mergeWall })
	set("merge.self_s", "s", func(_ sample, lt layerTimes) float64 { return lt.mergeSelf })
	set("merge.steps", "count", func(s sample, _ layerTimes) float64 { return float64(s.stats.MergeSteps) })
	set("merge.pages_read", "pages", func(s sample, _ layerTimes) float64 { return float64(s.stats.MergePagesRead) })
	set("merge.extra_reads", "pages", func(s sample, _ layerTimes) float64 { return float64(s.stats.ExtraMergeReads) })
	set("merge.useful_read_ratio", "ratio", func(s sample, _ layerTimes) float64 {
		if s.stats.MergePagesRead == 0 {
			return 1
		}
		return ratio(s.stats.MergePagesRead-s.stats.ExtraMergeReads, s.stats.MergePagesRead)
	})
	set("merge.splits", "count", func(s sample, _ layerTimes) float64 { return float64(s.stats.Splits) })
	set("merge.combines", "count", func(s sample, _ layerTimes) float64 { return float64(s.stats.Combines) })
	set("merge.suspensions", "count", func(s sample, _ layerTimes) float64 { return float64(s.stats.Suspensions) })
	// A pass reads and writes every page once: run formation is one, and
	// the merge adds MergePagesRead/PagesIn more, re-reads included.
	set("merge.io_passes", "passes", func(s sample, _ layerTimes) float64 {
		return 1 + ratio(s.stats.MergePagesRead, s.stats.PagesIn)
	})
	// ⌈log_M N⌉ with N input pages and an M-page budget: the external
	// sorting pass bound with one page per block.
	set("merge.io_passes_lower_bound", "passes", func(s sample, _ layerTimes) float64 {
		return max(1, math.Ceil(math.Log(float64(s.stats.PagesIn))/math.Log(float64(b.w.budget))))
	})

	set("parallel.workers", "count", func(s sample, _ layerTimes) float64 { return float64(s.stats.Workers) })
	set("parallel.cpu_per_wall", "ratio", func(s sample, _ layerTimes) float64 { return s.cpuS / s.wallS })

	set("store.append_calls", "count", func(s sample, _ layerTimes) float64 { return float64(s.rec.appendCalls) })
	set("store.append_s", "s", func(_ sample, lt layerTimes) float64 { return lt.appendS })
	set("store.write_wait_s", "s", func(_ sample, lt layerTimes) float64 { return lt.writeWait })
	set("store.read_calls", "count", func(s sample, _ layerTimes) float64 { return float64(s.rec.readCalls) })
	set("store.read_wait_s", "s", func(_ sample, lt layerTimes) float64 { return lt.readWait })
	set("store.read_latency_p50_us", "us", func(_ sample, lt layerTimes) float64 { return lt.readP50us })
	set("store.read_latency_p99_us", "us", func(_ sample, lt layerTimes) float64 { return lt.readP99us })
	set("store.pages_written", "pages", func(s sample, _ layerTimes) float64 { return float64(s.rec.pagesWritten) })
	set("store.pages_read", "pages", func(s sample, _ layerTimes) float64 { return float64(s.rec.pagesRead) })

	set("budget.max_granted_pages", "pages", func(s sample, _ layerTimes) float64 { return float64(s.stats.MaxGranted) })
	set("budget.shrinks", "count", func(s sample, _ layerTimes) float64 { return float64(s.rec.shrinks) })
	set("budget.shrink_response_pages", "pages", func(s sample, _ layerTimes) float64 {
		return ratio(int(s.rec.responseOps), s.rec.shrinks)
	})
	set("budget.excess_page_ops", "pages", func(s sample, _ layerTimes) float64 { return float64(s.rec.excessPageOps) })

	set("result.drain_s", "s", func(s sample, _ layerTimes) float64 { return s.wallS - s.sortS })
	set("result.drain_read_wait_s", "s", func(_ sample, lt layerTimes) float64 { return lt.drainReadWait })

	set("runtime.gc_cycles", "count", func(s sample, _ layerTimes) float64 { return float64(s.gcCycles) })
	set("runtime.gc_pause_s", "s", func(s sample, _ layerTimes) float64 { return s.gcPauseS })
	m["runtime.peak_rss_mb"] = metric{float64(peakRSS()) / (1 << 20), "MB"}

	tracedWall := median(traced, func(s sample) float64 { return s.wallS })
	m["bench.trace_overhead"] = metric{tracedWall/median(plain, func(s sample) float64 { return s.wallS }) - 1, "ratio"}
	// The share of traced wall time (Sort plus drain) that the layer
	// times leave unexplained; on a serial sort it is the time Sort spends
	// outside its split and merge phases.
	set("bench.unaccounted_share", "ratio", func(s sample, lt layerTimes) float64 {
		acct := lt.splitSelf + lt.mergeSelf + lt.appendS + lt.writeWait + lt.readWait + lt.inputPull + (s.wallS - s.sortS)
		return 1 - acct/s.wallS
	})
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(ss []sample, f func(sample) float64) float64 {
	vals := make([]float64, len(ss))
	for i, s := range ss {
		vals[i] = f(s)
	}
	return medianOf(vals)
}

func medianOf(vals []float64) float64 {
	v := slices.Clone(vals)
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// machine describes where the numbers were measured.
func (b *bench) machine() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
		"tmp_fs":     fsType(b.tmp),
		"flush":      "page cache only: FileStore never fsyncs",
	}
}
