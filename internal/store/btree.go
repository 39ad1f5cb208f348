package store

// In-memory B+ tree over record keys — the ordered secondary index behind
// Snapshot.Scan/ScanRange. The seed's scans iterated the whole table map and
// re-sorted the survivors on every call, making every list O(total keys) in
// the metastore; the tree turns a prefix or range scan into a descent plus a
// bounded leaf walk, O(log n + result).
//
// Design notes:
//
//   - The tree indexes *membership* in the table map, not liveness: a key is
//     inserted when its record is created and removed only when the record
//     is dropped from the map (fully dead and unpinned — the same rule the
//     apply path already uses). MVCC consistency therefore costs nothing
//     extra: the tree always holds a superset of the keys live at any
//     readable version, and scans filter each record through record.at(v)
//     exactly as the map walk did.
//   - Values are *record pointers, shared with the table map, so an index
//     hit needs no second map lookup. Records are mutated in place (a new
//     version moves in, the old one moves behind it) and their pointers are
//     stable for the life of the key.
//   - No internal locking: the tree is written only at commit-apply time and
//     WAL replay under the metastore's stateMu write lock, and read under
//     its read lock, inheriting the store's existing synchronization.
//   - Deletes are lazy: the key is removed from its leaf but nodes are never
//     merged and a leaf's arrays never shrink. Record removal from the map is
//     rare (a record must be fully dead with no snapshot pinning its history),
//     so sparse decay is bounded and the simplicity keeps the write path
//     O(log n) with no rebalancing.
//   - A leaf costs what it holds. Its two arrays grow leafStep slots at a
//     time, a split copies each half into arrays of its own size, and a leaf
//     that overflows on the second of two inserts at its end keeps everything
//     but that key: an ascending run of inserts — the children of one parent,
//     which is how name, child and path rows arrive — leaves full leaves
//     behind it instead of half-empty ones. Any other overflow splits the
//     leaf in half, so no load leaves leaves under half full. btree.slots
//     counts the allocated leaf slots, so size/slots is the fill
//     (uc_store_index_leaf_fill).

import (
	"slices"
	"sort"
)

const (
	// btreeMaxKeys is the split threshold per node: a leaf holds at most 127
	// keys (2 KiB of string headers and 1 KiB of record pointers when full),
	// which keeps tree height at 4 for ten million keys.
	btreeMaxKeys = 127
	// leafStep is the number of slots a leaf's arrays grow by. Sixteen keeps
	// a leaf's empty slots under 16 and makes every array size a malloc size
	// class: 256 B of key headers and 128 B of pointers per step, up to
	// btreeMaxKeys+1 = 8 steps.
	leafStep = 16
)

type bnode struct {
	leaf bool
	// tail says the last insert into this leaf went to its end and did not
	// split it: the leaf is, as far as it can tell, the head of an ascending
	// run.
	tail bool
	keys []string
	// vals holds the leaf's records, aligned with keys.
	vals []*record
	// children of an interior node; len(children) == len(keys)+1 and
	// keys[i] is the smallest key reachable under children[i+1].
	children []*bnode
	// next chains leaves in key order for range walks.
	next *bnode
}

type btree struct {
	root *bnode
	size int
	// slots is the capacity of every leaf's key array, summed.
	slots int
}

func newBtree() *btree {
	return &btree{root: &bnode{leaf: true}}
}

// childIdx returns the index of the child covering k: the number of
// separators <= k (equal keys live in the right subtree, matching the
// split convention below).
func (n *bnode) childIdx(k string) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.keys[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert adds or replaces the record for k.
func (t *btree) insert(k string, v *record) {
	promoted, right := t.insertInto(t.root, k, v)
	if right != nil {
		t.root = &bnode{keys: []string{promoted}, children: []*bnode{t.root, right}}
	}
}

// insertInto descends to the leaf for k and inserts; a node that grows past
// btreeMaxKeys splits, returning the separator and new right sibling for the
// parent to absorb.
func (t *btree) insertInto(n *bnode, k string, v *record) (string, *bnode) {
	if n.leaf {
		i := sort.SearchStrings(n.keys, k)
		if i < len(n.keys) && n.keys[i] == k {
			n.vals[i] = v
			return "", nil
		}
		if len(n.keys) == cap(n.keys) {
			t.resizeLeaf(n, cap(n.keys)+leafStep)
		}
		n.keys = slices.Insert(n.keys, i, k)
		n.vals = slices.Insert(n.vals, i, v)
		t.size++
		atEnd := i == len(n.keys)-1
		if len(n.keys) > btreeMaxKeys {
			return t.splitLeaf(n, atEnd && n.tail)
		}
		n.tail = atEnd
		return "", nil
	}
	ci := n.childIdx(k)
	promoted, right := t.insertInto(n.children[ci], k, v)
	if right == nil {
		return "", nil
	}
	n.keys = append(n.keys, "")
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = promoted
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	if len(n.keys) > btreeMaxKeys {
		return n.splitInterior()
	}
	return "", nil
}

// resizeLeaf moves a leaf's keys and records into arrays of c slots.
func (t *btree) resizeLeaf(n *bnode, c int) {
	t.slots += c - cap(n.keys)
	n.keys = append(make([]string, 0, c), n.keys...)
	n.vals = append(make([]*record, 0, c), n.vals...)
}

// splitLeaf moves the upper part of an overflowing leaf into a new right
// sibling and promotes the sibling's first key (keys >= separator go right).
// With run set, the key that overflowed it continues an ascending run: the
// sibling starts with that key alone and the leaf stays full. The leaf's tail
// is cleared, so a key that later lands at its end — below the sibling's,
// hence not of that run — splits it in half rather than shedding one more
// one-key leaf. Otherwise the leaf splits in half now. Either way each part
// gets arrays of its own size: a left part sliced out of the old arrays would
// keep all their slots alive.
func (t *btree) splitLeaf(n *bnode, run bool) (string, *bnode) {
	mid := len(n.keys) / 2
	if run {
		mid = len(n.keys) - 1
	}
	right := &bnode{leaf: true, tail: run, next: n.next}
	t.resizeLeaf(right, leafSlots(len(n.keys)-mid))
	right.keys = append(right.keys, n.keys[mid:]...)
	right.vals = append(right.vals, n.vals[mid:]...)
	clear(n.keys[mid:])
	clear(n.vals[mid:])
	n.keys, n.vals = n.keys[:mid], n.vals[:mid]
	if c := leafSlots(mid); c < cap(n.keys) {
		t.resizeLeaf(n, c)
	}
	n.tail = false
	n.next = right
	return right.keys[0], right
}

// leafSlots rounds n keys up to whole steps.
func leafSlots(n int) int { return (n + leafStep - 1) / leafStep * leafStep }

// splitInterior moves the upper half of an interior node right, promoting
// the middle separator (which belongs to neither half).
func (n *bnode) splitInterior() (string, *bnode) {
	mid := len(n.keys) / 2
	up := n.keys[mid]
	right := &bnode{
		keys:     append([]string(nil), n.keys[mid+1:]...),
		children: append([]*bnode(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return up, right
}

// delete removes k if present. Nodes are never merged (see package comment).
func (t *btree) delete(k string) {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIdx(k)]
	}
	i := sort.SearchStrings(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		// slices.Delete zeroes the vacated slot: a leaf must not keep a
		// deleted key's bytes or its record alive past its length.
		n.keys = slices.Delete(n.keys, i, i+1)
		n.vals = slices.Delete(n.vals, i, i+1)
		t.size--
	}
}

// get returns the record for k, if indexed.
func (t *btree) get(k string) (*record, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIdx(k)]
	}
	i := sort.SearchStrings(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		return n.vals[i], true
	}
	return nil, false
}

// ascend calls fn for every indexed (key, record) with key >= start in
// ascending key order until fn returns false.
func (t *btree) ascend(start string, fn func(k string, r *record) bool) {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIdx(start)]
	}
	i := sort.SearchStrings(n.keys, start)
	for n != nil {
		for ; i < len(n.keys); i++ {
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.next
		i = 0
	}
}
