// Package vset holds the sorted vertex-set primitives of the live delta
// layer (internal/live). A set is a plain sorted []graph.Vertex with no
// duplicates; all operations preserve that invariant and none of them
// allocate beyond the append they document.
package vset

import "pdtl/internal/graph"

// Search returns the insertion position of v in the sorted list and
// whether v is already present.
func Search(list []graph.Vertex, v graph.Vertex) (int, bool) {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(list) && list[lo] == v
}

// Contains reports whether v is in the sorted list.
func Contains(list []graph.Vertex, v graph.Vertex) bool {
	_, ok := Search(list, v)
	return ok
}

// Insert adds v to the sorted list, returning the (possibly reallocated)
// slice. Inserting a vertex that is already present is a no-op.
func Insert(list []graph.Vertex, v graph.Vertex) []graph.Vertex {
	pos, ok := Search(list, v)
	if ok {
		return list
	}
	return InsertAt(list, pos, v)
}

// InsertAt inserts v at position pos, which the caller obtained from
// Search — the split primitive for callers that need the position check
// and the shift as separate steps (one binary search instead of two).
func InsertAt(list []graph.Vertex, pos int, v graph.Vertex) []graph.Vertex {
	list = append(list, 0)
	copy(list[pos+1:], list[pos:])
	list[pos] = v
	return list
}

// Remove deletes v from the sorted list, returning the shortened slice.
// Removing an absent vertex is a no-op.
func Remove(list []graph.Vertex, v graph.Vertex) []graph.Vertex {
	pos, ok := Search(list, v)
	if !ok {
		return list
	}
	return RemoveAt(list, pos)
}

// RemoveAt deletes the element at position pos (from Search).
func RemoveAt(list []graph.Vertex, pos int) []graph.Vertex {
	return append(list[:pos], list[pos+1:]...)
}

// Intersect appends a ∩ b to dst (usually dst[:0] of a reusable scratch)
// and returns it. Both inputs must be sorted sets.
func Intersect(dst, a, b []graph.Vertex) []graph.Vertex {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// Merge appends base ∪ ins \ del to dst and returns it. base, ins, and del
// must be sorted sets; ins must be disjoint from base and del a subset of
// base (the delta-layer invariants), though Merge degrades gracefully —
// an ins already in base is emitted once, a del not in base is ignored.
// This is the read-merge primitive of the live overlay: one pass, no
// allocation beyond dst's growth.
func Merge(dst, base, ins, del []graph.Vertex) []graph.Vertex {
	i, j, k := 0, 0, 0
	for i < len(base) || j < len(ins) {
		var v graph.Vertex
		switch {
		case i == len(base):
			v = ins[j]
			j++
		case j == len(ins):
			v = base[i]
			i++
		case base[i] < ins[j]:
			v = base[i]
			i++
		case base[i] > ins[j]:
			v = ins[j]
			j++
		default: // duplicate across base and ins: emit once
			v = base[i]
			i++
			j++
		}
		for k < len(del) && del[k] < v {
			k++
		}
		if k < len(del) && del[k] == v {
			k++
			continue
		}
		dst = append(dst, v)
	}
	return dst
}
