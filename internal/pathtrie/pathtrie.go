// Package pathtrie implements a trie over cloud-storage URLs used to enforce
// the one-asset-per-path principle: no two assets in a metastore may have
// overlapping storage paths, where paths overlap when one is a prefix of the
// other at a path-segment boundary (the same path counts as overlapping).
//
// The trie supports three operations the Unity Catalog core needs:
//
//   - Insert, which fails if the new path would overlap an existing one;
//   - Resolve, which maps an arbitrary object path to the unique asset whose
//     registered path is a prefix of it (used by credential vending); and
//   - Overlapping, which lists registered paths conflicting with a candidate
//     (used to produce actionable error messages at asset-creation time).
//
// Keys are URLs such as "s3://bucket/warehouse/db/table". The scheme and
// bucket form the first two segments; the object key is split on '/'.
package pathtrie

import (
	"fmt"
	"strings"
	"sync"
)

// Trie maps storage paths to opaque values (typically asset IDs).
// The zero value is not usable; call New.
type Trie struct {
	mu   sync.RWMutex
	root *node
	size int
}

type node struct {
	// children is nil until the node gets its first child: a leaf — every
	// registered path ends in one — never has any.
	children map[string]*node
	// value is non-nil when a path terminates at this node.
	value any
	path  string
}

// New returns an empty Trie.
func New() *Trie {
	return &Trie{root: &node{}}
}

// ErrOverlap is returned by Insert when the candidate path overlaps a
// registered path.
type ErrOverlap struct {
	Path     string // the candidate path
	Existing string // the registered path it conflicts with
}

func (e *ErrOverlap) Error() string {
	return fmt.Sprintf("path %q overlaps existing path %q", e.Path, e.Existing)
}

// segments normalizes a storage URL into trie segments.
// "s3://bucket/a/b/" -> ["s3:", "bucket", "a", "b"].
func segments(path string) []string {
	path = strings.TrimSuffix(path, "/")
	var segs []string
	if i := strings.Index(path, "://"); i >= 0 {
		segs = append(segs, path[:i+1]) // "s3:"
		path = path[i+3:]
	}
	for _, s := range strings.Split(path, "/") {
		if s != "" {
			segs = append(segs, s)
		}
	}
	return segs
}

// Insert registers path with the given value. It returns *ErrOverlap if path
// equals, contains, or is contained by a registered path.
func (t *Trie) Insert(path string, value any) error {
	segs := segments(path)
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.root
	for _, s := range segs {
		if n.value != nil {
			return &ErrOverlap{Path: path, Existing: n.path}
		}
		child, ok := n.children[s]
		if !ok {
			child = &node{}
			if n.children == nil {
				n.children = map[string]*node{}
			}
			n.children[s] = child
		}
		n = child
	}
	if n.value != nil {
		return &ErrOverlap{Path: path, Existing: n.path}
	}
	if len(n.children) > 0 {
		// The new path is a strict prefix of at least one registered path.
		return &ErrOverlap{Path: path, Existing: firstDescendantPath(n)}
	}
	n.value = value
	n.path = path
	t.size++
	return nil
}

func firstDescendantPath(n *node) string {
	for _, c := range n.children {
		if c.value != nil {
			return c.path
		}
		if p := firstDescendantPath(c); p != "" {
			return p
		}
	}
	return ""
}

// Remove unregisters path. It reports whether the path was present.
func (t *Trie) Remove(path string) bool {
	segs := segments(path)
	t.mu.Lock()
	defer t.mu.Unlock()
	// Walk down, remembering the chain so empty nodes can be pruned.
	chain := make([]*node, 0, len(segs)+1)
	chain = append(chain, t.root)
	n := t.root
	for _, s := range segs {
		child, ok := n.children[s]
		if !ok {
			return false
		}
		chain = append(chain, child)
		n = child
	}
	if n.value == nil {
		return false
	}
	n.value = nil
	n.path = ""
	t.size--
	// Prune now-empty nodes bottom-up.
	for i := len(chain) - 1; i > 0; i-- {
		cur := chain[i]
		if cur.value != nil || len(cur.children) > 0 {
			break
		}
		delete(chain[i-1].children, segs[i-1])
	}
	return true
}

// Resolve returns the value registered for the path that is a prefix of p
// (or equal to it), if any. This is the path→asset mapping guaranteed unique
// by the one-asset-per-path invariant.
func (t *Trie) Resolve(p string) (value any, registered string, ok bool) {
	segs := segments(p)
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for _, s := range segs {
		if n.value != nil {
			return n.value, n.path, true
		}
		child, present := n.children[s]
		if !present {
			return nil, "", false
		}
		n = child
	}
	if n.value != nil {
		return n.value, n.path, true
	}
	return nil, "", false
}

// Lookup returns the value registered exactly at path.
func (t *Trie) Lookup(path string) (any, bool) {
	segs := segments(path)
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for _, s := range segs {
		child, ok := n.children[s]
		if !ok {
			return nil, false
		}
		n = child
	}
	if n.value == nil {
		return nil, false
	}
	return n.value, true
}

// Overlapping returns the registered paths that overlap the candidate path:
// any registered prefix of it plus all registered paths underneath it.
func (t *Trie) Overlapping(path string) []string {
	segs := segments(path)
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []string
	n := t.root
	for _, s := range segs {
		if n.value != nil {
			out = append(out, n.path)
		}
		child, ok := n.children[s]
		if !ok {
			return out
		}
		n = child
	}
	collect(n, &out)
	return out
}

func collect(n *node, out *[]string) {
	if n.value != nil {
		*out = append(*out, n.path)
	}
	for _, c := range n.children {
		collect(c, out)
	}
}

// Len returns the number of registered paths.
func (t *Trie) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Walk calls fn for every registered path until fn returns false.
func (t *Trie) Walk(fn func(path string, value any) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	walk(t.root, fn)
}

func walk(n *node, fn func(string, any) bool) bool {
	if n.value != nil {
		if !fn(n.path, n.value) {
			return false
		}
	}
	for _, c := range n.children {
		if !walk(c, fn) {
			return false
		}
	}
	return true
}
