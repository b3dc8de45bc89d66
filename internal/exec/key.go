package exec

import (
	"math"

	"redshift/internal/types"
)

// Every hash operator — aggregation, join, distinct, the shuffle router
// and the spill partitioner — keys its table by one byte encoding of the
// row's key values. Hot paths encode into a buffer the operator reuses and
// probe with m[string(buf)], which does not allocate; the key string is
// materialized only when a new entry is inserted.

// appendKey appends the key encoding of vals to buf. The encoding is
// injective: NULL is one 0 byte; a non-NULL value is 1, its type tag and
// 8 little-endian bytes (float bits with -0 folded into +0, else the
// integer payload, else the string length followed by the string bytes).
func appendKey(buf []byte, vals []types.Value) []byte {
	for _, v := range vals {
		buf = appendValueKey(buf, v)
	}
	return buf
}

// appendRowKey appends the key encoding of row r across cols. A nil
// column encodes as the zero Value, the way Batch.Row boxes it.
func appendRowKey(buf []byte, cols []*types.Vector, r int) []byte {
	for _, c := range cols {
		var v types.Value
		if c != nil {
			v = c.Get(r)
		}
		buf = appendValueKey(buf, v)
	}
	return buf
}

func appendValueKey(buf []byte, v types.Value) []byte {
	if v.Null {
		return append(buf, 0)
	}
	buf = append(buf, 1, byte(v.T))
	switch v.T {
	case types.Float64:
		return appendUint64(buf, floatKeyBits(v.F))
	case types.String:
		buf = appendUint64(buf, uint64(len(v.S)))
		return append(buf, v.S...)
	default:
		return appendUint64(buf, uint64(v.I))
	}
}

// keyLen is the length of vals' key encoding.
func keyLen(vals []types.Value) int {
	n := 0
	for _, v := range vals {
		n += valueKeyLen(v)
	}
	return n
}

// valueKeyLen is the length of appendValueKey's encoding of v, and
// valueKeyHeader the bytes in front of a string's payload.
func valueKeyLen(v types.Value) int {
	switch {
	case v.Null:
		return 1
	case v.T == types.String:
		return valueKeyHeader + len(v.S)
	default:
		return valueKeyHeader
	}
}

const valueKeyHeader = 10 // 1, type tag, 8-byte payload or length

// internKeyStrings re-points the string values among vals into k, their
// key encoding, so a table that keeps k keeps no other copy of them.
func internKeyStrings(k string, vals []types.Value) {
	off := 0
	for i, v := range vals {
		if !v.Null && v.T == types.String {
			vals[i].S = k[off+valueKeyHeader : off+valueKeyLen(v)]
		}
		off += valueKeyLen(v)
	}
}

// KeyEncoder renders a tuple of values into a comparable string key for
// hash tables (joins, grouping, distinct): the appendKey encoding.
func KeyEncoder(vals []types.Value) string {
	return string(appendKey(make([]byte, 0, 16*len(vals)), vals))
}

func appendUint64(b []byte, x uint64) []byte {
	return append(b,
		byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
		byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
}

func floatKeyBits(f float64) uint64 {
	// Normalize -0 and +0 so they hash identically.
	if f == 0 {
		f = 0
	}
	return math.Float64bits(f)
}

// HashValues hashes a tuple for distribution (FNV-1a over the key
// encoding), the same function the cluster layer uses to place rows by
// distribution key, so planner co-location reasoning and executor shuffles
// agree by construction.
func HashValues(vals []types.Value) uint64 {
	var a [64]byte
	return fnv64(appendKey(a[:0], vals))
}

// fnv64 is 64-bit FNV-1a.
func fnv64(k []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range k {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// rowSet is the seen-set behind every DISTINCT path: it keeps each row's
// first occurrence, comparing whole rows by their key encoding.
type rowSet struct {
	seen map[string]struct{}
	buf  []byte
	sel  []int
}

func newRowSet(hint int) *rowSet {
	return &rowSet{seen: make(map[string]struct{}, hint)}
}

// filter adds b's rows to the set and returns the positions of those not
// seen before, plus the total length of their keys. The selection is
// reused by the next call.
func (s *rowSet) filter(b *Batch) (sel []int, keyBytes int64) {
	s.sel = s.sel[:0]
	for i := 0; i < b.N; i++ {
		s.buf = appendRowKey(s.buf[:0], b.Cols, i)
		if _, ok := s.seen[string(s.buf)]; ok {
			continue
		}
		s.seen[string(s.buf)] = struct{}{}
		s.sel = append(s.sel, i)
		keyBytes += int64(len(s.buf))
	}
	return s.sel, keyBytes
}
