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
//     merged. Record removal from the map is rare (a record must be fully
//     dead with no snapshot pinning its history), so sparse decay is bounded
//     and the simplicity keeps the write path O(log n) with no rebalancing.

import "sort"

// btreeMaxKeys is the split threshold per node. 127 keys per leaf keeps
// nodes around two cache pages of string headers while holding tree height
// at 4 for ten million keys.
const btreeMaxKeys = 127

type bnode struct {
	leaf bool
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
		n.keys = append(n.keys, "")
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = k
		n.vals = append(n.vals, nil)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = v
		t.size++
		if len(n.keys) > btreeMaxKeys {
			return n.splitLeaf()
		}
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

// splitLeaf moves the upper half of a leaf into a new right sibling and
// promotes the sibling's first key (keys >= separator go right).
func (n *bnode) splitLeaf() (string, *bnode) {
	mid := len(n.keys) / 2
	right := &bnode{
		leaf: true,
		keys: append([]string(nil), n.keys[mid:]...),
		vals: append([]*record(nil), n.vals[mid:]...),
		next: n.next,
	}
	n.keys = n.keys[:mid:mid]
	n.vals = n.vals[:mid:mid]
	n.next = right
	return right.keys[0], right
}

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
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
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
