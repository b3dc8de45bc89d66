package exec

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"redshift/internal/compress"
	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// TestKeyEncodingGolden pins the key encoding and every hash derived from
// it: cluster row placement (HashValues), spill partitioning and
// parallel-build ownership all depend on these bytes, so a change here
// would move data between slices and partitions.
func TestKeyEncodingGolden(t *testing.T) {
	cases := []struct {
		vals  []types.Value
		key   string
		hash  uint64
		parts [4]int // spillPartition at depths 0..3
		owner int    // fnvOwner over 7 workers
	}{
		{[]types.Value{types.NewInt(42)},
			"\x01\x01*\x00\x00\x00\x00\x00\x00\x00", 0xbf20053b15f43bfd, [4]int{0, 2, 7, 5}, 0},
		{[]types.Value{types.NewString("abc"), types.NewNull(types.Int64), types.NewFloat(math.Copysign(0, -1))},
			"\x01\x03\x03\x00\x00\x00\x00\x00\x00\x00abc\x00\x01\x02\x00\x00\x00\x00\x00\x00\x00\x00", 0xe05c4267370c24cd, [4]int{4, 6, 7, 5}, 3},
		{[]types.Value{types.NewFloat(0), types.NewBool(true), types.NewDate(19000), types.NewTimestamp(-5)},
			"\x01\x02\x00\x00\x00\x00\x00\x00\x00\x00\x01\x04\x01\x00\x00\x00\x00\x00\x00\x00\x01\x058J\x00\x00\x00\x00\x00\x00\x01\x06\xfb\xff\xff\xff\xff\xff\xff\xff", 0x257550f5a63c678d, [4]int{4, 6, 7, 5}, 5},
		{[]types.Value{types.NewString(""), types.NewNull(types.String), types.NewFloat(-2.5), types.NewInt(math.MinInt64)},
			"\x01\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x02\x00\x00\x00\x00\x00\x00\x04\xc0\x01\x01\x00\x00\x00\x00\x00\x00\x00\x80", 0xd0864eefb7ca7f2a, [4]int{5, 7, 4, 2}, 1},
		{[]types.Value{{}}, "\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00", 0x512de6c89da6cd44, [4]int{5, 3, 2, 4}, 1},
	}
	for i, c := range cases {
		if got := KeyEncoder(c.vals); got != c.key {
			t.Errorf("case %d: KeyEncoder = %q, want %q", i, got, c.key)
		}
		if got := keyLen(c.vals); got != len(c.key) {
			t.Errorf("case %d: keyLen = %d, want %d", i, got, len(c.key))
		}
		// The column-vector path encodes the same bytes; a zero Value
		// stands for a nil column.
		cols := make([]*types.Vector, len(c.vals))
		for ci, v := range c.vals {
			if v.IsZero() {
				continue
			}
			cols[ci] = types.NewVector(v.T, 1)
			cols[ci].Append(v)
		}
		if got := string(appendRowKey(nil, cols, 0)); got != c.key {
			t.Errorf("case %d: appendRowKey = %q, want %q", i, got, c.key)
		}
		if got := HashValues(c.vals); got != c.hash {
			t.Errorf("case %d: HashValues = %#x, want %#x", i, got, c.hash)
		}
		for d, want := range c.parts {
			if got := spillPartition([]byte(c.key), d); got != want {
				t.Errorf("case %d: spillPartition depth %d = %d, want %d", i, d, got, want)
			}
		}
		if got := fnvOwner([]byte(c.key), 7); got != c.owner {
			t.Errorf("case %d: fnvOwner = %d, want %d", i, got, c.owner)
		}
	}
	pos := KeyEncoder([]types.Value{types.NewFloat(0)})
	neg := KeyEncoder([]types.Value{types.NewFloat(math.Copysign(0, -1))})
	if pos != neg {
		t.Errorf("+0.0 and -0.0 encode differently: %q vs %q", pos, neg)
	}
}

// aggInput builds an (int key, string key, int value) batch of n rows
// cycling through 50 groups.
func aggInput(n int) *Batch {
	iv := types.NewVector(types.Int64, n)
	sv := types.NewVector(types.String, n)
	xv := types.NewVector(types.Int64, n)
	for i := 0; i < n; i++ {
		iv.Append(types.NewInt(int64(i % 50)))
		sv.Append(types.NewString(fmt.Sprintf("group-%02d", i%50)))
		xv.Append(types.NewInt(int64(i)))
	}
	b := NewBatch(3)
	b.Cols[0], b.Cols[1], b.Cols[2], b.N = iv, sv, xv, n
	return b
}

func aggTable(t *testing.T) (*GroupTable, *MemTracker) {
	t.Helper()
	specs := []plan.AggSpec{
		{Func: sql.FuncCount, T: types.Int64},
		{Func: sql.FuncSum, Arg: col(2, types.Int64), T: types.Int64},
		{Func: sql.FuncMin, Arg: col(1, types.String), T: types.String},
		{Func: sql.FuncCount, Arg: col(2, types.Int64), Distinct: true, T: types.Int64},
		{Func: sql.FuncCount, Arg: col(1, types.String), Approx: true, T: types.Int64},
	}
	g, err := NewGroupTable(Compiled, []plan.Expr{col(0, types.Int64), col(1, types.String)}, specs)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewMemTracker(0, nil)
	g.SetMemory(&MemContext{T: tr.Child()})
	return g, tr
}

// TestGroupTableConsumeAllocsPerBatch: folding rows into resident groups
// allocates a constant per batch, whatever the batch size.
func TestGroupTableConsumeAllocsPerBatch(t *testing.T) {
	allocs := func(n int) float64 {
		g, _ := aggTable(t)
		b := aggInput(n)
		if err := g.Consume(b); err != nil {
			t.Fatal(err)
		}
		defer g.ReleaseMem()
		return testing.AllocsPerRun(20, func() {
			if err := g.Consume(b); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(BatchSize)
	if small != large {
		t.Errorf("Consume over resident keys: %v allocs at 64 rows, %v at %d", small, large, BatchSize)
	}
}

// TestHashJoinProbeAllocsPerBatch: a probe allocates its output and a
// constant amount of bookkeeping, not a key per row.
func TestHashJoinProbeAllocsPerBatch(t *testing.T) {
	allocs := func(n int) float64 {
		j, err := NewHashJoin(Compiled, mkJoinStep(sql.InnerJoin), 2)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int64, n)
		names := make([]string, n)
		for i := range ids {
			ids[i], names[i] = int64(i), fmt.Sprint("row-", i)
		}
		if err := j.Build(twoColBatch(ids, names)); err != nil {
			t.Fatal(err)
		}
		probe := twoColBatch(ids, names)
		return testing.AllocsPerRun(20, func() {
			out, err := j.Probe(probe)
			if err != nil || out.N != n {
				t.Fatalf("probe: %v rows, err %v", out.N, err)
			}
		})
	}
	small, large := allocs(64), allocs(BatchSize)
	if small != large {
		t.Errorf("Probe: %v allocs at 64 rows, %v at %d", small, large, BatchSize)
	}
}

// TestDistinctSieveAllocsPerBatch: sieving rows the worker has already
// seen allocates nothing per row.
func TestDistinctSieveAllocsPerBatch(t *testing.T) {
	allocs := func(n int) float64 {
		in := aggInput(n)
		d := NewDistinctSieve()
		d.Apply(&Batch{Cols: append([]*types.Vector(nil), in.Cols...), N: n})
		return testing.AllocsPerRun(20, func() {
			if out := d.Apply(&Batch{Cols: append([]*types.Vector(nil), in.Cols...), N: n}); out != nil {
				t.Fatalf("sieve kept %d already-seen rows", out.N)
			}
		})
	}
	small, large := allocs(64), allocs(BatchSize)
	if small != large {
		t.Errorf("DistinctSieve.Apply: %v allocs at 64 rows, %v at %d", small, large, BatchSize)
	}
}

// TestAggChargesSumOfGroupMemBytes pins the per-batch accounting: after
// any number of batches — new groups, revisited groups and states that
// grow — the tracker holds exactly the sum of groupMemBytes over the
// table's groups.
func TestAggChargesSumOfGroupMemBytes(t *testing.T) {
	g, tr := aggTable(t)
	for off := 0; off < 5000; off += 700 {
		b := aggInput(700)
		for i := range b.Cols[0].Ints {
			b.Cols[0].Ints[i] += int64(off / 1400) // new groups every other batch
			b.Cols[2].Ints[i] += int64(off)        // new distinct values every batch
		}
		if err := g.Consume(b); err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, k := range g.order {
			grp := g.groups[k]
			if grp.mem != groupMemBytes(grp) {
				t.Fatalf("group %q charged %d, holds %d", k, grp.mem, groupMemBytes(grp))
			}
			want += grp.mem
		}
		if got := tr.Used(); got != want {
			t.Fatalf("after offset %d: tracker holds %d, groups sum to %d", off, got, want)
		}
	}
	g.ReleaseMem()
	if tr.Used() != 0 {
		t.Errorf("tracker holds %d after release", tr.Used())
	}
}

// decodedStrings returns strs as a scan hands them out — decoded from one
// block, so all are slices of one copy of it — and a predicate reporting
// whether a string's bytes lie inside that block.
func decodedStrings(t *testing.T, strs []string) (*types.Vector, func(string) bool) {
	t.Helper()
	v := types.NewVector(types.String, len(strs))
	for _, s := range strs {
		v.Append(types.NewString(s))
	}
	enc, err := compress.Encode(compress.Raw, v)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := compress.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	addr := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	lo, hi := ^uintptr(0), uintptr(0)
	for _, s := range dec.Strs {
		lo, hi = min(lo, addr(s)), max(hi, addr(s)+uintptr(len(s)))
	}
	return dec, func(s string) bool { return s != "" && addr(s) >= lo && addr(s) < hi }
}

// TestGroupTableKeepsNoInputStrings: after Consume no group key or MIN/MAX
// state may point into the input's block.
func TestGroupTableKeepsNoInputStrings(t *testing.T) {
	g, _ := aggTable(t)
	b := aggInput(200)
	var inBlock func(string) bool
	b.Cols[1], inBlock = decodedStrings(t, b.Cols[1].Strs)
	if err := g.Consume(b); err != nil {
		t.Fatal(err)
	}
	for k, grp := range g.groups {
		if inBlock(grp.keys[1].S) || grp.keys[1].S != k[len(k)-len(grp.keys[1].S):] {
			t.Fatalf("group %q: string key %q is not interned in the table's key", k, grp.keys[1].S)
		}
		mm := grp.states[2].(*minMaxState)
		if inBlock(mm.best.S) {
			t.Fatalf("group %q: MIN state still points into the input block at %q", k, mm.best.S)
		}
	}
}

// TestRowBuffersKeepNoInputStrings: a join build side and a sort run keep
// rows for the whole statement, and charge their memory by string length;
// neither may hold a string that points into its input's block.
func TestRowBuffersKeepNoInputStrings(t *testing.T) {
	const n = 300
	ids := make([]int64, n)
	names := make([]string, n)
	for i := range ids {
		ids[i], names[i] = int64(i), fmt.Sprintf("a fairly long comment for row %03d", i)
	}
	in := twoColBatch(ids, names)
	var inBlock func(string) bool
	in.Cols[1], inBlock = decodedStrings(t, names)
	sel := make([]int, 0, n/10)
	for i := 0; i < n; i += 10 {
		sel = append(sel, i) // a selective build keeps a few rows of the block
	}
	check := func(what string, strs []string) {
		t.Helper()
		if len(strs) != len(sel) {
			t.Fatalf("%s holds %d rows, want %d", what, len(strs), len(sel))
		}
		for i, s := range strs {
			if s != names[sel[i]] {
				t.Fatalf("%s row %d = %q, want %q", what, i, s, names[sel[i]])
			}
			if inBlock(s) {
				t.Fatalf("%s row %d points into the input block", what, i)
			}
		}
	}

	j, err := NewHashJoin(Compiled, mkJoinStep(sql.InnerJoin), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Build(in.Gather(sel)); err != nil {
		t.Fatal(err)
	}
	check("join build side", j.build.Cols[1].Strs)

	s := NewExternalSorter([]plan.OrderKey{{Index: 0}}, 2, nil, -1)
	if err := s.Add(in.Gather(sel)); err != nil {
		t.Fatal(err)
	}
	check("sort run", s.cur.Cols[1].Strs)
}
