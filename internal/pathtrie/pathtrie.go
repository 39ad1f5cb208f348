// Package pathtrie implements a trie over cloud-storage URLs: the paper's §5
// "URL-tries" arm of path→asset resolution. The core does not use it — the
// catalog resolves paths through the store's ordered path table
// (erm.RegisteredPrefix) — and it is kept as the other arm of
// bench.AblationPathIndex and of the benchmark's path-resolution probe.
//
// Two paths overlap when one is a prefix of the other at a path-segment
// boundary (the same path counts as overlapping). The trie supports:
//
//   - Insert, which fails if the new path would overlap an existing one;
//   - Resolve, which maps an arbitrary object path to the unique value whose
//     registered path is a prefix of it.
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
