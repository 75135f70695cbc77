package core

import (
	"bytes"
	"cmp"
	"math/bits"
	"slices"
	"testing"

	"github.com/memadapt/masort/internal/randx"
)

// treeHead is the oracle's view of one leaf head.
type treeHead struct {
	tag uint32
	rec Record
}

func compareHeads(a, b treeHead) int {
	if c := cmp.Compare(a.tag, b.tag); c != 0 {
		return c
	}
	if c := cmp.Compare(a.rec.Key, b.rec.Key); c != 0 {
		return c
	}
	return bytes.Compare(a.rec.Payload, b.rec.Payload)
}

// treeOracle mirrors a selTree with a plain slice of leaf heads: nil is a
// vacant leaf. Its minimum comes from slices.SortFunc.
type treeOracle struct {
	heads []*treeHead
}

func (o *treeOracle) min() *treeHead {
	var live []treeHead
	for _, h := range o.heads {
		if h != nil {
			live = append(live, *h)
		}
	}
	if len(live) == 0 {
		return nil
	}
	slices.SortFunc(live, compareHeads)
	return &live[0]
}

// checkTop asserts that the tree's winner is the oracle's minimum and that
// the winning leaf really holds that head.
func checkTop(t *testing.T, tr *selTree, o *treeOracle, step int) {
	t.Helper()
	want := o.min()
	if want == nil {
		if !tr.empty() {
			t.Fatalf("step %d: tree has a winner, oracle is empty", step)
		}
		return
	}
	if tr.empty() {
		t.Fatalf("step %d: tree empty, oracle min %+v", step, *want)
	}
	top := tr.top()
	got := o.heads[top.leaf()]
	if got == nil {
		t.Fatalf("step %d: winner leaf %d is vacant in the oracle", step, top.leaf())
	}
	if top.tag() != got.tag || top.key != got.rec.Key {
		t.Fatalf("step %d: winner node (%d,%d) does not match its leaf head (%d,%d)",
			step, top.tag(), top.key, got.tag, got.rec.Key)
	}
	if compareHeads(*got, *want) != 0 {
		t.Fatalf("step %d: winner %+v, oracle min %+v", step, *got, *want)
	}
}

// replayBound is ⌈log₂ k⌉, the most comparisons one replay may cost over k
// leaves.
func replayBound(k int) int64 {
	if k <= 1 {
		return 0
	}
	return int64(bits.Len(uint(k - 1)))
}

// selTreeOps drives a selTree and its oracle through an operation stream:
// set any leaf, advance the winner, vacate any leaf or the winner, refill a
// vacant leaf, and grow. Tags span 0–2 and keys a tiny range, so key ties
// broken by payload are common. Every step checks the winner against the
// oracle and every replay against the ⌈log₂k⌉ bound.
func selTreeOps(t *testing.T, ops []byte) {
	var cmps int64
	tr := &selTree{cmp: &cmps}
	k := 1 + int(at(ops, 0)%6)
	tr.reset(k)
	o := &treeOracle{heads: make([]*treeHead, tr.capacity())}
	head := func(a, b byte) *treeHead {
		h := &treeHead{tag: uint32(a % 3), rec: Record{Key: uint64(b % 5)}}
		if b&0x80 != 0 {
			h.rec.Payload = []byte{a >> 4, b >> 5}
		}
		return h
	}
	for i := 1; i+2 < len(ops); i += 3 {
		op, a, b := ops[i], ops[i+1], ops[i+2]
		leaf := int(a) % tr.capacity()
		before := cmps
		switch op % 6 {
		case 0: // set any leaf
			h := head(a, b)
			o.heads[leaf] = h
			tr.set(leaf, h.tag, h.rec)
		case 1: // advance the winner
			if tr.empty() {
				continue
			}
			w := tr.top().leaf()
			h := head(b, a)
			o.heads[w] = h
			tr.set(w, h.tag, h.rec)
		case 2: // vacate any leaf
			o.heads[leaf] = nil
			tr.vacate(leaf)
		case 3: // vacate the winner
			if tr.empty() {
				continue
			}
			w := tr.top().leaf()
			o.heads[w] = nil
			tr.vacate(w)
		case 4: // refill the first vacant leaf
			for l, h := range o.heads {
				if h == nil {
					h = head(a^b, b)
					o.heads[l] = h
					tr.set(l, h.tag, h.rec)
					break
				}
			}
		case 5: // grow
			if tr.capacity() >= 64 {
				continue
			}
			tr.grow()
			o.heads = append(o.heads, make([]*treeHead, tr.capacity()-len(o.heads))...)
		}
		if c := cmps - before; c > replayBound(tr.capacity()) {
			t.Fatalf("step %d (op %d): %d comparisons over %d leaves, bound %d",
				i, op%6, c, tr.capacity(), replayBound(tr.capacity()))
		}
		checkTop(t, tr, o, i)
	}
}

func at(b []byte, i int) byte {
	if i < len(b) {
		return b[i]
	}
	return 0
}

func TestSelTreeRandomOpsMatchOracle(t *testing.T) {
	rng := randx.New(13, "seltree")
	for round := 0; round < 200; round++ {
		ops := make([]byte, 1+3*int(rng.Uint64()%200))
		for i := range ops {
			ops[i] = byte(rng.Uint64())
		}
		selTreeOps(t, ops)
	}
}

func FuzzSelTree(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 3, 4})
	f.Fuzz(func(t *testing.T, ops []byte) { selTreeOps(t, ops) })
}

// TestSelTreeDrainsInOrder loads sorted sequences at every leaf (tags 0–2,
// key ties broken by payload), drains the tree by advancing the winner, and
// checks the output against slices.SortFunc over all the heads.
func TestSelTreeDrainsInOrder(t *testing.T) {
	rng := randx.New(21, "seltree-drain")
	for _, k := range []int{1, 2, 3, 7, 16, 33} {
		var cmps int64
		tr := &selTree{cmp: &cmps}
		tr.reset(k)
		seqs := make([][]treeHead, k)
		var all []treeHead
		for l := range seqs {
			n := int(rng.Uint64() % 40)
			for i := 0; i < n; i++ {
				h := treeHead{tag: uint32(rng.Uint64() % 3), rec: Record{Key: rng.Uint64() % 8}}
				if rng.Uint64()%2 == 0 {
					h.rec.Payload = []byte{byte(rng.Uint64() % 4)}
				}
				seqs[l] = append(seqs[l], h)
			}
			slices.SortFunc(seqs[l], compareHeads)
			all = append(all, seqs[l]...)
			if len(seqs[l]) > 0 {
				tr.place(l, seqs[l][0].tag, seqs[l][0].rec)
			}
		}
		tr.build()
		slices.SortFunc(all, compareHeads)
		pos := make([]int, k)
		var got []treeHead
		for !tr.empty() {
			l := tr.top().leaf()
			got = append(got, seqs[l][pos[l]])
			pos[l]++
			before := cmps
			if pos[l] < len(seqs[l]) {
				h := seqs[l][pos[l]]
				tr.set(l, h.tag, h.rec)
			} else {
				tr.vacate(l)
			}
			if c := cmps - before; c > replayBound(k) {
				t.Fatalf("k=%d: replay cost %d comparisons, bound %d", k, c, replayBound(k))
			}
		}
		if len(got) != len(all) {
			t.Fatalf("k=%d: drained %d heads, want %d", k, len(got), len(all))
		}
		for i := range all {
			if compareHeads(got[i], all[i]) != 0 {
				t.Fatalf("k=%d: position %d got %+v, want %+v", k, i, got[i], all[i])
			}
		}
	}
}

func TestSelTreeSingleLeaf(t *testing.T) {
	var cmps int64
	tr := &selTree{cmp: &cmps}
	tr.reset(1)
	if tr.capacity() != 1 || !tr.empty() {
		t.Fatalf("capacity %d, empty %v", tr.capacity(), tr.empty())
	}
	for _, k := range []uint64{9, 3, 7} {
		tr.set(0, 0, Record{Key: k})
		if tr.empty() || tr.top().key != k || tr.top().leaf() != 0 {
			t.Fatalf("single leaf head %d: top %+v", k, tr.top())
		}
	}
	tr.vacate(0)
	if !tr.empty() {
		t.Fatal("vacated single leaf must leave the tree empty")
	}
	if cmps != 0 {
		t.Fatalf("a single leaf has nothing to compare against, counted %d", cmps)
	}
}

// TestSelTreeGrowKeepsWinners doubles a populated tree and checks that the
// old heads keep their leaves and order, at no comparison cost.
func TestSelTreeGrowKeepsWinners(t *testing.T) {
	var cmps int64
	tr := &selTree{cmp: &cmps}
	tr.reset(3)
	keys := []uint64{40, 10, 30, 20}
	for l, k := range keys {
		tr.set(l, 0, Record{Key: k})
	}
	before := cmps
	tr.grow()
	tr.grow()
	if cmps != before {
		t.Fatalf("grow made %d comparisons", cmps-before)
	}
	if tr.capacity() != 16 {
		t.Fatalf("capacity %d after two doublings of 4", tr.capacity())
	}
	tr.set(9, 1, Record{Key: 1}) // next-run tag: sorts after every tag-0 head
	var order []uint64
	for !tr.empty() {
		top := tr.top()
		order = append(order, top.key)
		tr.vacate(top.leaf())
	}
	if want := []uint64{10, 20, 30, 40, 1}; !slices.Equal(order, want) {
		t.Fatalf("drain order %v, want %v", order, want)
	}
}
