package store

// In-memory B+ tree over record keys — the ordered secondary index behind
// Snapshot.Scan/ScanRange. The seed's scans iterated the whole table map and
// re-sorted the survivors on every call, making every list O(total keys) in
// the metastore; the tree turns a prefix or range scan into a descent plus a
// bounded leaf walk, O(log n + result).
//
// Design notes:
//
//   - The tree indexes *membership* in the key table, not liveness: a key is
//     inserted when its record is created and removed only when the record
//     is dropped from the key table (fully dead and unpinned — the same rule
//     the apply path already uses). MVCC consistency therefore costs nothing
//     extra: the tree always holds a superset of the keys live at any
//     readable version, and scans filter each record through record.at(v)
//     exactly as the map walk did.
//   - A leaf holds *record pointers and nothing else: each record carries
//     its key, so a leaf searches r.key, as the key table probes do, and an
//     index hit needs no second lookup. Records are mutated in place (a new
//     version moves in, the old one moves behind it), their pointers are
//     stable for the life of the key, and their key never changes, so a
//     leaf's order holds. Interior separators are strings: a separator
//     that pointed at a record would pin it past its reclamation.
//   - No internal locking: the tree is written only at commit-apply time and
//     WAL replay under the metastore's stateMu write lock, and read under
//     its read lock, inheriting the store's existing synchronization.
//   - Deletes are lazy: the key is removed from its leaf but nodes are never
//     merged and a leaf's array never shrinks. Record removal from the key
//     table is rare (a record must be fully dead with no snapshot pinning its
//     history), so sparse decay is bounded and the simplicity keeps the write
//     path O(log n) with no rebalancing.
//   - A leaf costs what it holds. Its array grows through leafCaps, each a
//     size an array fills its malloc class at, a split copies each half into
//     an array of its own size, and a full leaf that is handed a second
//     insert at its end keeps everything and gives that key a leaf of its
//     own: an ascending run of inserts — the children of one parent, which is
//     how path rows arrive — leaves full leaves behind it instead of
//     half-empty ones. Any other insert into a
//     full leaf splits it in half, so no load leaves leaves under half full.
//     btree.slots counts the allocated leaf slots, so size/slots is the fill
//     (uc_store_index_leaf_fill).

import "slices"

// btreeMaxKeys is the split threshold per node: a leaf holds at most 127
// records (1 KiB with its header when full), which keeps tree height at 4 for
// ten million keys.
const btreeMaxKeys = 127

// leafCaps are the sizes a leaf's array takes, smallest first: 16 slots at a
// time up to 64, whose 128 to 512 bytes are malloc size classes, then the
// slot counts that fill each class from 576 to 1,024 bytes with the 8-byte
// header Go gives an object of pointers over 512 bytes. A leaf never has more
// than btreeMaxKeys slots: a full one splits before the insert that would
// need the 128th (TestLeafArraysFillTheirClass).
var leafCaps = [...]int{16, 32, 48, 64, 71, 79, 87, 95, 111, btreeMaxKeys}

type bnode struct {
	leaf bool
	// tail says the last insert into this leaf went to its end and did not
	// split it: the leaf is, as far as it can tell, the head of an ascending
	// run.
	tail bool
	// keys are an interior node's separators; a leaf has none.
	keys []string
	// vals holds a leaf's records in ascending order of their keys.
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
	// slots is the capacity of every leaf's array, summed.
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

// leafIdx returns the index of the first record in leaf n whose key is >= k.
func (n *bnode) leafIdx(k string) int {
	lo, hi := 0, len(n.vals)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.vals[mid].key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafFor descends to the leaf covering k.
func (t *btree) leafFor(k string) *bnode {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIdx(k)]
	}
	return n
}

// insert adds r under its key, replacing any record already there.
func (t *btree) insert(r *record) {
	promoted, right := t.insertInto(t.root, r)
	if right != nil {
		t.root = &bnode{keys: []string{promoted}, children: []*bnode{t.root, right}}
	}
}

// insertInto descends to the leaf for r's key and inserts; a node that grows
// past btreeMaxKeys splits, returning the separator and new right sibling for
// the parent to absorb.
func (t *btree) insertInto(n *bnode, r *record) (string, *bnode) {
	if n.leaf {
		i := n.leafIdx(r.key)
		if i < len(n.vals) && n.vals[i].key == r.key {
			n.vals[i] = r
			return "", nil
		}
		t.size++
		atEnd := i == len(n.vals)
		if len(n.vals) == btreeMaxKeys {
			return t.splitLeaf(n, i, r, atEnd && n.tail)
		}
		if len(n.vals) == cap(n.vals) {
			t.resizeLeaf(n, leafSlots(len(n.vals)+1))
		}
		n.vals = slices.Insert(n.vals, i, r)
		n.tail = atEnd
		return "", nil
	}
	ci := n.childIdx(r.key)
	promoted, right := t.insertInto(n.children[ci], r)
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

// resizeLeaf moves a leaf's records into an array of c slots.
func (t *btree) resizeLeaf(n *bnode, c int) { t.setLeaf(n, append(make([]*record, 0, c), n.vals...)) }

// setLeaf makes vals the leaf's array, counting its slots for the old one's.
func (t *btree) setLeaf(n *bnode, vals []*record) {
	t.slots += cap(vals) - cap(n.vals)
	n.vals = vals
}

// splitLeaf puts r, which belongs at i, beside the records of full leaf n
// by moving some of them into a new right sibling, and promotes the
// sibling's first key (keys >= separator go right). With run set, r continues
// an ascending run: the sibling starts with r alone and the leaf stays full.
// The leaf's tail is cleared, so a key that later lands at its end — below
// the sibling's, hence not of that run — splits it in half rather than
// shedding one more one-key leaf. Otherwise the leaf and r split in half
// now, each half copied into an array of its own size: a left half sliced
// out of the old array would keep all its slots alive.
func (t *btree) splitLeaf(n *bnode, i int, r *record, run bool) (string, *bnode) {
	right := &bnode{leaf: true, tail: run, next: n.next}
	all := n.vals
	join := func(parts ...[]*record) []*record {
		size := 0
		for _, p := range parts {
			size += len(p)
		}
		out := make([]*record, 0, leafSlots(size))
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	one := []*record{r}
	switch mid := (len(all) + 1) / 2; {
	case run:
		t.setLeaf(right, join(one))
	case i < mid:
		t.setLeaf(right, join(all[mid-1:]))
		t.setLeaf(n, join(all[:i], one, all[i:mid-1]))
	default:
		t.setLeaf(right, join(all[mid:i], one, all[i:]))
		t.setLeaf(n, join(all[:mid]))
	}
	n.tail = false
	n.next = right
	return right.vals[0].key, right
}

// leafSlots returns the smallest of leafCaps that holds n keys.
func leafSlots(n int) int {
	for _, c := range leafCaps {
		if c >= n {
			return c
		}
	}
	panic("store: a leaf of more than btreeMaxKeys keys")
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
	n := t.leafFor(k)
	if i := n.leafIdx(k); i < len(n.vals) && n.vals[i].key == k {
		// slices.Delete zeroes the vacated slot: a leaf must not keep a
		// deleted record alive past its length.
		n.vals = slices.Delete(n.vals, i, i+1)
		t.size--
	}
}

// ascend calls fn for every indexed record with key >= start in ascending
// key order until fn returns false.
func (t *btree) ascend(start string, fn func(r *record) bool) {
	n := t.leafFor(start)
	for i := n.leafIdx(start); n != nil; n, i = n.next, 0 {
		for ; i < len(n.vals); i++ {
			if !fn(n.vals[i]) {
				return
			}
		}
	}
}
