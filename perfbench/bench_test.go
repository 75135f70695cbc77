package main

import (
	"context"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"

	"github.com/memadapt/masort"
)

// small shrinks a workload to a test-sized input that still spills, keeping
// its shape: the same payloads, workers and kind of budget schedule.
func small(w workload) workload {
	w.records = 60_000
	w.budget = 24
	if w.shrink != nil {
		w.shrink = &schedule{offset: 60, period: 120, hold: 50, to: 4}
	}
	return w
}

func runSmall(t *testing.T, w workload, seed uint64, traced bool) *report {
	t.Helper()
	b := &bench{w: small(w), seed: seed, tmp: t.TempDir()}
	rep, err := b.measure(0, traced)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("%s: %d of %d sorts failed: %v", w.name, rep.Failed, rep.Attempted, b.firstErr)
	}
	if entries, err := os.ReadDir(b.tmp); err != nil || len(entries) != 0 {
		t.Fatalf("%s: work directory not empty after the run (%d entries, %v)", w.name, len(entries), err)
	}
	return rep
}

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestEmitsEveryMetric runs every workload on a small input, untraced and
// traced, and checks that each reports exactly the metrics BENCHMARK.json
// names, with their units. The serial workloads also pass the determinism
// self-check, which fails a sort whose counts differ from the first's.
func TestEmitsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	if !slices.Equal(names, listed) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", names, listed)
	}
	want := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			rep := runSmall(t, w, 1, traced)
			exp := want(bf.EndToEnd)
			if traced {
				exp = want(bf.PerLayer)
			}
			got := map[string]string{}
			for name, m := range rep.Metrics {
				got[name] = m.Unit
			}
			if !maps.Equal(got, exp) {
				t.Errorf("%s trace=%v: emitted %v\nBENCHMARK.json names %v", w.name, traced, got, exp)
			}
		}
	}
}

// TestScheduleAdapts checks that the small fluctuating workload really
// shrinks the budget mid-sort and that the merge adapts to it.
func TestScheduleAdapts(t *testing.T) {
	w, err := findWorkload("payload-fluctuating")
	if err != nil {
		t.Fatal(err)
	}
	m := runSmall(t, w, 3, true).Metrics
	if m["budget.shrinks"].Value == 0 || m["merge.splits"].Value == 0 {
		t.Fatalf("no adaptation: shrinks=%v splits=%v", m["budget.shrinks"].Value, m["merge.splits"].Value)
	}
}

// TestSeedChangesInput checks that another seed gives another input but
// the same metric names.
func TestSeedChangesInput(t *testing.T) {
	for _, w := range workloads() {
		w = small(w)
		a, b := newInput(w, 1), newInput(w, 2)
		if a.want == b.want {
			t.Errorf("%s: seeds 1 and 2 give the same input fingerprint", w.name)
		}
		if again := newInput(w, 1); again.want != a.want || again.bytes != a.bytes {
			t.Errorf("%s: seed 1 does not repeat its input", w.name)
		}
	}
	w, err := findWorkload("keys-serial")
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := runSmall(t, w, 1, false).Metrics, runSmall(t, w, 2, false).Metrics
	if !slices.Equal(slices.Sorted(maps.Keys(m1)), slices.Sorted(maps.Keys(m2))) {
		t.Fatalf("metric names differ between seeds: %v vs %v", slices.Sorted(maps.Keys(m1)), slices.Sorted(maps.Keys(m2)))
	}
}

// TestVerifierRejectsCorruptOutput feeds the verifier a correctly sorted
// output and corrupted copies of it.
func TestVerifierRejectsCorruptOutput(t *testing.T) {
	w, err := findWorkload("payload-fluctuating")
	if err != nil {
		t.Fatal(err)
	}
	in := newInput(small(w), 7)
	recs, err := masort.Drain(in.iter())
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := masort.SortSlice(context.Background(), recs, masort.WithBudget(masort.NewBudget(16)))
	if err != nil {
		t.Fatal(err)
	}
	verify := func(out []masort.Record) error {
		var v verifier
		for _, r := range out {
			v.add(r)
		}
		return v.check(in.want)
	}
	if err := verify(sorted); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	corrupt := map[string]func([]masort.Record) []masort.Record{
		"two records swapped": func(out []masort.Record) []masort.Record {
			out[100], out[101] = out[101], out[100]
			return out
		},
		"record dropped": func(out []masort.Record) []masort.Record { return out[:len(out)-1] },
		"record duplicated": func(out []masort.Record) []masort.Record {
			out[len(out)-1] = out[len(out)-2]
			return out
		},
		"payload changed": func(out []masort.Record) []masort.Record {
			i := slices.IndexFunc(out, func(r masort.Record) bool { return len(r.Payload) > 0 })
			p := slices.Clone(out[i].Payload)
			p[0]++
			out[i].Payload = p
			return out
		},
	}
	for name, f := range corrupt {
		if err := verify(f(slices.Clone(sorted))); err == nil {
			t.Errorf("%s: verification passed", name)
		}
	}
}
