package exec

import (
	"sort"

	"redshift/internal/plan"
	"redshift/internal/types"
)

// SortBatch orders a fully materialized batch by the given keys (over the
// batch's own columns). The sort is stable so equal keys keep input order,
// which keeps distributed merges deterministic.
func SortBatch(b *Batch, keys []plan.OrderKey) *Batch {
	if b.N <= 1 || len(keys) == 0 {
		return b
	}
	idx := make([]int, b.N)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		return crossCompare(b, idx[x], b, idx[y], keys) < 0
	})
	return b.Gather(idx)
}

// MergeSorted merges pre-sorted batches into one sorted batch — the leader
// node's merge step over per-slice sorted streams. Ties go to the earlier
// batch. The inputs are concatenated once and the merge only picks row
// positions, so the output is built by a single gather.
func MergeSorted(batches []*Batch, keys []plan.OrderKey) (*Batch, error) {
	var nonEmpty []*Batch
	for _, b := range batches {
		if b != nil && b.N > 0 {
			nonEmpty = append(nonEmpty, b)
		}
	}
	if len(nonEmpty) == 0 {
		if len(batches) > 0 {
			return batches[0], nil
		}
		return &Batch{}, nil
	}
	all := NewBatch(len(nonEmpty[0].Cols))
	base := make([]int, len(nonEmpty))
	for i, b := range nonEmpty {
		base[i] = all.N
		if err := all.Concat(b); err != nil {
			return nil, err
		}
	}
	pos := make([]int, len(nonEmpty))
	sel := make([]int, 0, all.N)
	for len(sel) < all.N {
		best := -1
		for i, b := range nonEmpty {
			if pos[i] >= b.N {
				continue
			}
			if best == -1 || crossCompare(b, pos[i], nonEmpty[best], pos[best], keys) < 0 {
				best = i
			}
		}
		sel = append(sel, base[best]+pos[best])
		pos[best]++
	}
	return all.Gather(sel), nil
}

func crossCompare(a *Batch, ai int, b *Batch, bi int, keys []plan.OrderKey) int {
	for _, k := range keys {
		c := types.Compare(a.Cols[k.Index].Get(ai), b.Cols[k.Index].Get(bi))
		if c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// TopN keeps the first n rows of a sorted batch — the slice-local
// LIMIT pushdown paired with the leader's merge.
func TopN(b *Batch, n int64) *Batch {
	if n < 0 || int64(b.N) <= n {
		return b
	}
	sel := make([]int, n)
	for i := range sel {
		sel[i] = i
	}
	return b.Gather(sel)
}

// Distinct removes duplicate rows, preserving first occurrence order.
func Distinct(b *Batch) *Batch {
	if b.N <= 1 {
		return b
	}
	sel, _ := newRowSet(b.N).filter(b)
	if len(sel) == b.N {
		return b
	}
	return b.Gather(sel)
}
