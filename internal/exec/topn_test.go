package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"redshift/internal/plan"
	"redshift/internal/types"
)

// topNInput builds n rows in batches of random size: an Int64 key with
// few distinct values, a String key with fewer, both sprinkled with
// NULLs, and a payload naming the row's arrival position, so a tie
// resolved out of arrival order shows as a different payload.
func topNInput(rng *rand.Rand, n int) []*Batch {
	var out []*Batch
	for row := 0; row < n; {
		sz := min(1+rng.Intn(300), n-row)
		kv := types.NewVector(types.Int64, sz)
		sv := types.NewVector(types.String, sz)
		pv := types.NewVector(types.String, sz)
		for i := 0; i < sz; i++ {
			if rng.Intn(10) == 0 {
				kv.AppendNull()
			} else {
				kv.Append(types.NewInt(int64(rng.Intn(12))))
			}
			if rng.Intn(8) == 0 {
				sv.AppendNull()
			} else {
				sv.Append(types.NewString(fmt.Sprintf("s%d", rng.Intn(4))))
			}
			pv.Append(types.NewString(fmt.Sprintf("row%05d", row+i)))
		}
		b := NewBatch(3)
		b.Cols[0], b.Cols[1], b.Cols[2], b.N = kv, sv, pv, sz
		out = append(out, b)
		row += sz
	}
	return out
}

// TestPropBoundedSortMatchesTopN checks the bounded sorter against the
// definition of ORDER BY ... LIMIT: the first limit rows of the stable
// sort of the whole input. Keys repeat heavily, so ties span batch
// boundaries and a LIMIT cuts through them; a 1 KiB grant forces the
// spill fallback for the large limits.
func TestPropBoundedSortMatchesTopN(t *testing.T) {
	rng := rand.New(rand.NewSource(propSeed(t)))
	ctx := context.Background()
	const n = 3000
	keySets := []struct {
		name string
		keys []plan.OrderKey
	}{
		{"asc", []plan.OrderKey{{Index: 0}}},
		{"desc", []plan.OrderKey{{Index: 0, Desc: true}}},
		{"multi", []plan.OrderKey{{Index: 0}, {Index: 1, Desc: true}}},
		{"multi-str", []plan.OrderKey{{Index: 1, Desc: true}, {Index: 0}}},
	}
	for _, ks := range keySets {
		name, keys := ks.name, ks.keys
		input := topNInput(rng, n)
		all := NewBatch(3)
		for _, b := range input {
			if err := all.Concat(b); err != nil {
				t.Fatal(err)
			}
		}
		sorted := SortBatch(all, keys)
		k := int64(2 + rng.Intn(n-4))
		for _, limit := range []int64{0, 1, k, n - 1, n, n + 7} {
			want := batchRowStrings(TopN(sorted, limit))
			for _, grant := range []int64{0, 1 << 10} {
				label := fmt.Sprintf("%s/limit=%d/grant=%d", name, limit, grant)
				t.Run(label, func(t *testing.T) {
					var mc *MemContext
					if grant > 0 {
						mc = govCtx(t, grant)
					}
					s := NewExternalSorter(keys, 3, mc, limit)
					for _, b := range input {
						if err := s.Add(b); err != nil {
							t.Fatal(err)
						}
					}
					if grant > 0 && limit >= n-1 && !s.Spilled() {
						t.Errorf("%d candidates never spilled a %d-byte grant", limit, grant)
					}
					got, err := s.Result(ctx)
					if err != nil {
						t.Fatal(err)
					}
					s.Release()
					sameRows(t, label, batchRowStrings(got), want)
				})
			}
		}
	}
}

// TestFinalizeTopNChargeBoundedByLimit runs the leader's ORDER BY ...
// LIMIT 10 over 20k rows, once as a single aggregate-result batch and
// once streamed in BatchSize pieces. The operator's peak memory charge
// must be a small multiple of ten rows, not a function of the input.
func TestFinalizeTopNChargeBoundedByLimit(t *testing.T) {
	const rows, limit = 20000, 10
	rng := rand.New(rand.NewSource(7))
	kv := types.NewVector(types.Int64, rows)
	pv := types.NewVector(types.String, rows)
	for i := 0; i < rows; i++ {
		kv.Append(types.NewInt(int64(rng.Intn(1000000))))
		pv.Append(types.NewString(fmt.Sprintf("cust%06d", i)))
	}
	whole := NewBatch(2)
	whole.Cols[0], whole.Cols[1], whole.N = kv, pv, rows
	rowBytes := whole.ByteSize()/rows + 1
	keys := []plan.OrderKey{{Index: 0, Desc: true}, {Index: 1}}

	var pieces []*Batch
	for off := 0; off < rows; off += BatchSize {
		sel := make([]int, 0, BatchSize)
		for i := off; i < min(off+BatchSize, rows); i++ {
			sel = append(sel, i)
		}
		pieces = append(pieces, whole.Gather(sel))
	}

	for name, input := range map[string][]*Batch{"one-batch": {whole}, "streamed": pieces} {
		t.Run(name, func(t *testing.T) {
			tr := NewMemTracker(0, nil)
			op := NewFinalizeOp(NewBatchSource(input), false, keys, limit, 2)
			op.SetMemory(&MemContext{T: tr.Child()})
			if err := op.Open(context.Background()); err != nil {
				t.Fatal(err)
			}
			out, err := op.Next(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if out.N != limit {
				t.Fatalf("rows = %d, want %d", out.N, limit)
			}
			for i := 1; i < out.N; i++ {
				if crossCompare(out, i-1, out, i, keys) > 0 {
					t.Fatalf("row %d sorts before row %d", i, i-1)
				}
			}
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
			if bound := 4 * limit * rowBytes; tr.Peak() > bound {
				t.Errorf("peak charge %d bytes for LIMIT %d over %d rows, want <= %d (4 x limit rows)",
					tr.Peak(), limit, rows, bound)
			}
			if tr.Used() != 0 {
				t.Errorf("tracker holds %d bytes after Close", tr.Used())
			}
		})
	}
}
