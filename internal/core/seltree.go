package core

import (
	"bytes"
	"math/bits"
)

// vacantTag is the tag of an empty leaf. It orders after every real tag
// (real tags stay below 1<<31), so a vacant leaf never wins against an
// occupied one.
const vacantTag = uint32(1) << 31

// selNode is one selection-tree node: the head of the leaf that wins the
// node's subtree, cached inline. meta packs the head's tag (high 32 bits)
// above the leaf index (low 32 bits), so (meta>>32, key) is the head's
// order and the top bit marks a vacant leaf. A replay compares these 16-byte
// nodes only; the head's payload bytes are read, through the leaf index,
// just to break (tag, key) ties.
type selNode struct {
	key  Key
	meta uint64
}

func (n selNode) tag() uint32 { return uint32(n.meta >> 32) }
func (n selNode) leaf() int   { return int(uint32(n.meta)) }

func vacantNode(leaf int) selNode {
	return selNode{meta: uint64(vacantTag)<<32 | uint64(leaf)}
}

// selTree is a winner tournament tree: every internal node holds the
// smallest head of its subtree in (tag, key, payload) order. It is the one
// selection structure of both sort phases. Replacement selection gives each
// leaf a sorted mini-run (the tag separates the current run from the next);
// merging and joining give each leaf an input run (tag 0).
//
// Any leaf can be set or vacated, and each change replays just that leaf's
// path to the root: one comparison per level, ⌈log₂ leaves⌉ in all. A loser
// tree would do the same work for the winner's leaf only, but replacement
// selection inserts at vacant leaves that are not the winner. Comparisons
// between two occupied heads are added to *cmp, which the caller charges to
// the CPU meter; a vacant side is decided without one.
type selTree struct {
	nodes []selNode // nodes[1] is the root; leaf i lives at nodes[capacity+i]
	pays  [][]byte  // head payload of each leaf
	cmp   *int64
}

// capacity returns the number of leaves.
func (t *selTree) capacity() int { return len(t.nodes) / 2 }

// reset empties the tree and sizes it to the smallest power of two that
// holds k leaves (at least one), reusing storage when it is large enough.
func (t *selTree) reset(k int) {
	c := 1
	for c < k {
		c *= 2
	}
	if cap(t.nodes) >= 2*c && cap(t.pays) >= c {
		t.nodes = t.nodes[:2*c]
		t.pays = t.pays[:c]
		clear(t.pays)
	} else {
		t.nodes = make([]selNode, 2*c)
		t.pays = make([][]byte, c)
	}
	for i := range t.nodes {
		t.nodes[i] = vacantNode(max(i-c, 0))
	}
}

// grow doubles the leaf count. The old tree becomes the root's left
// subtree, node for node, and the new right half is vacant, so no node needs
// a comparison.
func (t *selTree) grow() {
	oc := t.capacity()
	nc := 2 * oc
	nodes := make([]selNode, 2*nc)
	for i := range nodes {
		nodes[i] = vacantNode(max(i-nc, 0))
	}
	for d := 1; d < 2*oc; d *= 2 {
		// Level d of the old tree is nodes[d:2d]; it becomes the left half
		// of level 2d in the new one.
		copy(nodes[2*d:3*d], t.nodes[d:2*d])
	}
	nodes[1] = nodes[2]
	t.nodes = nodes
	t.pays = append(t.pays, make([][]byte, nc-oc)...)
}

// empty reports whether every leaf is vacant.
func (t *selTree) empty() bool { return t.nodes[1].tag() == vacantTag }

// top returns the winning head. Its tag is vacantTag when the tree is empty.
func (t *selTree) top() selNode { return t.nodes[1] }

// place stores a head at a leaf without replaying; build must run before
// the next query. It serves bulk loading.
func (t *selTree) place(leaf int, tag uint32, rec Record) {
	t.nodes[t.capacity()+leaf] = selNode{key: rec.Key, meta: uint64(tag)<<32 | uint64(leaf)}
	t.pays[leaf] = rec.Payload
}

// build computes every internal node from the leaves, bottom up: one
// comparison per pair of occupied children.
func (t *selTree) build() {
	n := t.nodes
	var cmp int64
	for i := t.capacity() - 1; i >= 1; i-- {
		w, c := t.winner(n[2*i], n[2*i+1])
		n[i] = w
		cmp += c
	}
	*t.cmp += cmp
}

// set gives a leaf a new head and replays its path.
func (t *selTree) set(leaf int, tag uint32, rec Record) {
	t.place(leaf, tag, rec)
	t.replay(t.capacity() + leaf)
}

// vacate empties a leaf and replays its path.
func (t *selTree) vacate(leaf int) {
	i := t.capacity() + leaf
	t.nodes[i] = vacantNode(leaf)
	t.pays[leaf] = nil
	t.replay(i)
}

// replay recomputes the winners on the path from node i to the root. The
// loop body is winner, written out by hand: it is the sort's hottest code
// and too large for the compiler to inline.
func (t *selTree) replay(i int) {
	n := t.nodes
	a := n[i]
	var cmp int64
	for i > 1 {
		b := n[i^1]
		_, lt := bits.Sub64(b.key, a.key, 0)
		_, lt = bits.Sub64(b.meta>>32, a.meta>>32, lt)
		if b.key == a.key && b.meta>>32 == a.meta>>32 {
			lt = t.payLess(b, a)
		}
		cmp += int64((a.meta|b.meta)>>63 ^ 1)
		mask := -lt
		a.key ^= (a.key ^ b.key) & mask
		a.meta ^= (a.meta ^ b.meta) & mask
		i >>= 1
		n[i] = a
	}
	*t.cmp += cmp
}

// winner returns the smaller of two heads (a on a tie) and 1 if that took
// a comparison, that is, if both are occupied. The choice is made without a
// data-dependent branch: a 128-bit subtraction of (tag, key) yields the
// borrow, and the borrow masks the copy. Only equal (tag, key) pairs, rare
// outside vacant subtrees, branch off to compare payloads.
func (t *selTree) winner(a, b selNode) (selNode, int64) {
	_, lt := bits.Sub64(b.key, a.key, 0)
	_, lt = bits.Sub64(b.meta>>32, a.meta>>32, lt)
	if b.key == a.key && b.meta>>32 == a.meta>>32 {
		lt = t.payLess(b, a)
	}
	c := int64((a.meta|b.meta)>>63 ^ 1)
	mask := -lt
	a.key ^= (a.key ^ b.key) & mask
	a.meta ^= (a.meta ^ b.meta) & mask
	return a, c
}

// payLess returns 1 if b's head payload orders before a's, else 0.
func (t *selTree) payLess(b, a selNode) uint64 {
	if b.meta>>63 == 0 && bytes.Compare(t.pays[b.leaf()], t.pays[a.leaf()]) < 0 {
		return 1
	}
	return 0
}
