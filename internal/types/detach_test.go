package types

import (
	"strings"
	"testing"
	"unsafe"
)

// sharesBytes reports whether a and b are backed by the same memory.
func sharesBytes(a, b string) bool {
	return a != "" && unsafe.StringData(a) == unsafe.StringData(b)
}

// endToEnd reports whether ss lie back to back in memory, as one
// allocation holding exactly their bytes.
func endToEnd(ss []string) bool {
	for i := 1; i < len(ss); i++ {
		if unsafe.Pointer(unsafe.StringData(ss[i])) != unsafe.Add(unsafe.Pointer(unsafe.StringData(ss[i-1])), len(ss[i-1])) {
			return false
		}
	}
	return true
}

// TestAppendVectorMatchesAppendFrom: appending a whole vector equals
// appending it position by position, across null-mask combinations.
func TestAppendVectorMatchesAppendFrom(t *testing.T) {
	fx := gatherFixtures()
	noNulls := NewVector(Int64, 0)
	noNulls.Append(NewInt(7))
	pairs := [][2]*Vector{
		{fx["ints"], fx["ints"]},
		{fx["floats"], fx["floats"]},
		{fx["strs"], fx["strs"]},
		{fx["nulls"], noNulls},
		{noNulls, fx["nulls"]},
	}
	for _, p := range pairs {
		got, want := p[0].Clone(), p[0].Clone()
		got.AppendVector(p[1])
		for i := 0; i < p[1].Len(); i++ {
			want.AppendFrom(p[1], i)
		}
		if !got.Equal(want) || got.Nulls != nil && len(got.Nulls) != got.Len() {
			t.Fatalf("%s: AppendVector = %v, AppendFrom = %v", p[0].T, got, want)
		}
	}
}

// TestAppendVectorCopiesStrings: the appended strings share nothing with
// the source and sit end to end in one allocation.
func TestAppendVectorCopiesStrings(t *testing.T) {
	block := strings.Repeat("abcdefgh", 16)
	src := NewVector(String, 0)
	for i := 0; i < 10; i++ {
		src.Append(NewString(block[i*9 : i*9+5])) // slices of one backing string
	}
	dst := NewVector(String, 0)
	dst.AppendVector(src)
	for i, s := range dst.Strs {
		if s != src.Strs[i] || sharesBytes(s, src.Strs[i]) {
			t.Fatalf("position %d: %q shares the source's bytes or differs from %q", i, s, src.Strs[i])
		}
	}
	if !endToEnd(dst.Strs) {
		t.Error("appended strings are not one allocation")
	}
}

// TestDetachRows: row strings are copied end to end into one allocation;
// other values and NULL strings are left as they were.
func TestDetachRows(t *testing.T) {
	block := "us|eu|apac|latam"
	rows := []Row{
		{NewString(block[0:2]), NewInt(1)},
		{NewString(block[3:5]), NewNull(String)},
		{NewString(block[6:10]), NewFloat(2.5)},
	}
	orig := make([]Row, len(rows))
	for i, r := range rows {
		orig[i] = r.Clone()
	}
	DetachRows(rows)
	var strs []string
	for i, r := range rows {
		for c, v := range r {
			if v != orig[i][c] {
				t.Fatalf("row %d col %d: %v, want %v", i, c, v, orig[i][c])
			}
			if v.T == String && !v.Null {
				if sharesBytes(v.S, orig[i][c].S) {
					t.Fatalf("row %d col %d still shares its source bytes", i, c)
				}
				strs = append(strs, v.S)
			}
		}
	}
	if !endToEnd(strs) {
		t.Error("detached strings are not one allocation")
	}
	DetachRows(nil) // no strings: nothing to do
}

// TestMinMaxDetached: zone-map bounds outlive the block they summarize.
func TestMinMaxDetached(t *testing.T) {
	v := NewVector(String, 0)
	for _, s := range []string{"pear", "apple", "zebra"} {
		v.Append(NewString(s))
	}
	min, max, _ := v.MinMax()
	if sharesBytes(min.S, v.Strs[1]) || sharesBytes(max.S, v.Strs[2]) {
		t.Error("MinMax returned strings that share the vector's bytes")
	}
}
