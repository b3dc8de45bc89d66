package types

import "strings"

// A decoded string is a slice of its whole block's payload (one string per
// block, see compress.Decode), so a string kept after its batch is gone
// keeps the whole block alive, and memory charged by the string's length
// undercounts it. Everything that keeps values longer than a batch copies
// them out with the helpers below:
//
//   - operator row buffers (join build sides, sort runs, merges) append
//     through Vector.AppendVector;
//   - materialized query results go through DetachRows;
//   - single values kept in long-lived state (zone-map bounds via MinMax,
//     table statistics, MIN/MAX aggregate states) use Value.Detached.

// Detached returns v with its own copy of any string payload.
func (v Value) Detached() Value {
	if v.T == String {
		v.S = strings.Clone(v.S)
	}
	return v
}

// DetachRows copies every string in rows into one fresh allocation shared
// by the rows, so they hold exactly their own bytes.
func DetachRows(rows []Row) {
	var ss []string
	for _, r := range rows {
		for _, v := range r {
			if v.T == String {
				ss = append(ss, v.S)
			}
		}
	}
	if len(ss) == 0 {
		return
	}
	ss = appendDetached(make([]string, 0, len(ss)), ss)
	for _, r := range rows {
		for i := range r {
			if r[i].T == String {
				r[i].S, ss = ss[0], ss[1:]
			}
		}
	}
}

// AppendVector appends all of src's positions to v; the types must match.
// String payloads are copied into one fresh allocation, so v never shares
// src's backing block.
func (v *Vector) AppendVector(src *Vector) {
	if src.T != v.T {
		panic("types: appending " + src.T.String() + " vector to " + v.T.String() + " vector")
	}
	n := src.Len()
	if src.Nulls != nil || v.Nulls != nil {
		v.ensureNulls()
		if src.Nulls != nil {
			v.Nulls = append(v.Nulls, src.Nulls...)
		} else {
			for i := 0; i < n; i++ {
				v.Nulls = append(v.Nulls, false)
			}
		}
	}
	switch v.T {
	case Float64:
		v.Floats = append(v.Floats, src.Floats...)
	case String:
		v.Strs = appendDetached(v.Strs, src.Strs)
	default:
		v.Ints = append(v.Ints, src.Ints...)
	}
}

// appendDetached appends copies of ss to dst, all sharing one allocation.
func appendDetached(dst, ss []string) []string {
	n := 0
	for _, s := range ss {
		n += len(s)
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, s := range ss {
		sb.WriteString(s)
	}
	all, off := sb.String(), 0
	for _, s := range ss {
		dst = append(dst, all[off:off+len(s)])
		off += len(s)
	}
	return dst
}
