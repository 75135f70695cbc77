package main

import (
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"runtime"

	"github.com/memadapt/masort"
)

// workload is one input shape the benchmark sorts. Every workload runs the
// library's default algorithm (repl6, opt, dynamic splitting) on a FileStore.
type workload struct {
	name    string
	records int
	// payload selects 0–maxPayload-byte payloads; false means 8-byte keys
	// only.
	payload bool
	// budget is the memory grant in pages (of pageRecords records each).
	budget int
	// workers is passed to masort.WithWorkers; 0 keeps the serial default.
	workers int
	// shrink, when set, cuts the budget on a fixed schedule of store page
	// traffic while the sort runs.
	shrink *schedule
}

// schedule cuts the budget to `to` pages for `hold` page operations out of
// every `period`, the first cut starting after `offset` operations. Driving
// it from the sort's own store traffic rather than a timer makes the
// adaptation repeat exactly from one run to the next.
type schedule struct {
	offset, period, hold int64
	to                   int
}

// cut reports whether the budget is cut after ops page operations.
func (s *schedule) cut(ops int64) bool {
	x := ops - s.offset
	return x >= 0 && x%s.period < s.hold
}

const (
	pageRecords = 256 // masort's default page size, in records
	maxPayload  = 240
	// payloadPool is the size of the seeded byte pool payloads are sliced
	// from. Slicing keeps the generator allocation-free, so the allocation
	// metrics are the engine's.
	payloadPool = 1 << 16
)

// workloads lists the benchmark's workloads; BENCHMARK.json says why each
// was chosen.
func workloads() []workload {
	return []workload{
		{name: "keys-serial", records: 4_000_000, budget: 256},
		{name: "keys-parallel", records: 4_000_000, budget: 256, workers: runtime.NumCPU()},
		{name: "payload-fluctuating", records: 1_000_000, payload: true, budget: 256,
			shrink: &schedule{offset: 1000, period: 1500, hold: 600, to: 12}},
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// input is a workload's seeded input: the generator parameters plus the
// reference fingerprint the sorted output must reproduce.
type input struct {
	seed    uint64
	records int
	pool    []byte // payload bytes; nil for keys-only workloads
	bytes   int64  // 8-byte keys plus payloads
	want    fingerprint
}

// newInput makes the input for seed and fingerprints it with one pass of
// the same generator the sort will consume.
func newInput(w workload, seed uint64) *input {
	in := &input{seed: seed, records: w.records}
	if w.payload {
		rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
		in.pool = make([]byte, payloadPool)
		for i := range in.pool {
			in.pool[i] = byte(rng.Uint32())
		}
	}
	g := in.iter()
	for {
		r, ok, _ := g.Next()
		if !ok {
			break
		}
		in.want.add(r)
		in.bytes += 8 + int64(len(r.Payload))
	}
	return in
}

// iter returns a fresh pass over the input. It streams from a seeded PCG
// and materializes nothing, like the CLI's and an upstream operator's
// input.
func (in *input) iter() *genIter {
	return &genIter{rng: rand.NewPCG(in.seed, 1), left: in.records, pool: in.pool}
}

type genIter struct {
	rng  *rand.PCG
	left int
	pool []byte
}

func (g *genIter) Next() (masort.Record, bool, error) {
	if g.left == 0 {
		return masort.Record{}, false, nil
	}
	g.left--
	r := masort.Record{Key: g.rng.Uint64()}
	if g.pool != nil {
		x := g.rng.Uint64()
		n := int(x % (maxPayload + 1))
		off := int((x >> 16) % uint64(len(g.pool)-maxPayload))
		r.Payload = g.pool[off : off+n : off+n]
	}
	return r, true, nil
}

// hashSeed keys the record hash; fingerprints are compared only within one
// process.
var hashSeed = maphash.MakeSeed()

// fingerprint is an order-independent digest of a multiset of records.
type fingerprint struct {
	count int
	sum   uint64
}

func (f *fingerprint) add(r masort.Record) {
	h := r.Key
	if len(r.Payload) > 0 {
		h ^= maphash.Bytes(hashSeed, r.Payload) * 0xbf58476d1ce4e5b9
	}
	// splitmix64 finalizer, so summing cannot cancel structured keys.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	f.count++
	f.sum += h
}

// verifier checks a sorted output stream: masort.Less order, and the same
// multiset of (key, payload) records as the input.
type verifier struct {
	got  fingerprint
	prev masort.Record
	err  error
}

func (v *verifier) add(r masort.Record) {
	if v.err == nil && v.got.count > 0 && masort.Less(r, v.prev) {
		v.err = fmt.Errorf("output record %d (key %d) sorts before its predecessor (key %d)",
			v.got.count, r.Key, v.prev.Key)
	}
	v.prev = r
	v.got.add(r)
}

// check reports the first ordering error, or a count or content mismatch
// against want.
func (v *verifier) check(want fingerprint) error {
	switch {
	case v.err != nil:
		return v.err
	case v.got.count != want.count:
		return fmt.Errorf("output has %d records, input had %d", v.got.count, want.count)
	case v.got.sum != want.sum:
		return fmt.Errorf("output records differ from the input's (fingerprint %x, want %x)", v.got.sum, want.sum)
	}
	return nil
}
