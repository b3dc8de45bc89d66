// Package load implements the COPY data path of §2.1: "COPY is parallelized
// across slices, with each slice reading data in parallel, distributing as
// needed, and sorting locally. By default, compression scheme and optimizer
// statistics are updated with load."
//
// Sources are objects in the simulated object store (CSV with a
// configurable delimiter, or newline-delimited JSON, optionally gzipped).
// Distribution follows the table's DISTSTYLE; local sort follows its
// SORTKEY — compound lexicographic or interleaved z-order.
package load

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"redshift/internal/catalog"
	"redshift/internal/cluster"
	"redshift/internal/compress"
	"redshift/internal/faults"
	"redshift/internal/hll"
	"redshift/internal/s3sim"
	"redshift/internal/storage"
	"redshift/internal/types"
	"redshift/internal/zorder"
)

// Options mirror the COPY clauses.
type Options struct {
	// Format is "CSV" (default) or "JSON" (newline-delimited objects).
	Format string
	// Delimiter for CSV; '|' when zero (the PostgreSQL COPY text default).
	Delimiter rune
	// CompUpdate: nil = automatic (choose encodings when the table is
	// empty), true = always re-choose, false = never.
	CompUpdate *bool
	// StatUpdate: nil/true = update optimizer statistics, false = skip.
	StatUpdate *bool
	// GZip marks source objects as gzip-compressed.
	GZip bool
}

// Stats reports what one COPY did.
type Stats struct {
	Rows         int64
	Objects      int
	BytesRead    int64
	Segments     int
	EncodingsSet bool
}

// Run executes COPY table FROM prefix. Rows become one new sorted segment
// per slice, committed under xid.
func Run(c *cluster.Cluster, cat *catalog.Catalog, def *catalog.TableDef,
	store *s3sim.Store, prefix string, opts Options, xid int64) (Stats, error) {

	var stats Stats
	keys := store.List(prefix)
	if len(keys) == 0 {
		return stats, fmt.Errorf("load: no objects under %q", prefix)
	}
	stats.Objects = len(keys)

	// Phase 1: parallel parse — one worker per slice, like the paper's
	// "each slice reading data in parallel".
	rows, bytesRead, err := parseObjects(c.NumSlices(), store, keys, def, opts)
	if err != nil {
		return stats, err
	}
	stats.BytesRead = bytesRead
	stats.Rows = int64(len(rows))

	set, err := AppendRows(c, cat, def, rows, opts, xid)
	if err != nil {
		return stats, err
	}
	stats.Segments = set.Segments
	stats.EncodingsSet = set.EncodingsSet
	return stats, nil
}

// AppendStats reports what AppendRows did.
type AppendStats struct {
	Segments     int
	EncodingsSet bool
}

// AppendRows distributes, locally sorts, encodes and commits rows — the
// shared write path of COPY and INSERT.
func AppendRows(c *cluster.Cluster, cat *catalog.Catalog, def *catalog.TableDef,
	rows []types.Row, opts Options, xid int64) (AppendStats, error) {

	var out AppendStats
	if len(rows) == 0 {
		return out, nil
	}
	tableStats, err := cat.Stats(def.ID)
	if err != nil {
		return out, err
	}
	tableEmpty := tableStats.Rows == 0

	// Automatic compression selection: on first load into an empty table
	// unless explicitly disabled — the dusty knob of §3.3.
	chooseEnc := tableEmpty
	if opts.CompUpdate != nil {
		chooseEnc = *opts.CompUpdate
	}
	if chooseEnc {
		if err := chooseEncodings(cat, def, rows); err != nil {
			return out, err
		}
		out.EncodingsSet = true
	}

	encs, err := cat.Encodings(def.ID)
	if err != nil {
		return out, err
	}
	// Distribute per DISTSTYLE, then sort each slice's share locally.
	parts := c.DistributeRows(def, rows)
	sorter, err := newSorter(def, rows)
	if err != nil {
		return out, err
	}

	type result struct {
		slice int
		seg   *storage.Segment
		err   error
	}
	results := make(chan result, len(parts))
	var wg sync.WaitGroup
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, part []types.Row) {
			defer wg.Done()
			sorter.sort(part)
			seq := int32(len(c.VisibleSegments(s, def.ID, 1<<62)))
			b, err := storage.NewBuilder(def.ID, int32(s), seq, def.Schema(), encs, c.Config().BlockCap)
			if err != nil {
				results <- result{err: err}
				return
			}
			for _, r := range part {
				if err := checkNotNull(def, r); err != nil {
					results <- result{err: err}
					return
				}
				if err := b.Append(r); err != nil {
					results <- result{err: err}
					return
				}
			}
			seg, err := b.Finish(sorter.sorted)
			results <- result{slice: s, seg: seg, err: err}
		}(s, part)
	}
	wg.Wait()
	close(results)
	for r := range results {
		if r.err != nil {
			return out, r.err
		}
		if err := c.AppendSegment(r.slice, r.seg, xid); err != nil {
			return out, err
		}
		out.Segments++
	}

	// Statistics update with load (§2.1), unless disabled.
	if opts.StatUpdate == nil || *opts.StatUpdate {
		delta := ComputeStats(def, rows)
		if !tableEmpty {
			// Appending a sorted run to a non-empty table leaves the table
			// as multiple sorted runs: count the new rows as unsorted work
			// for the (automatic) VACUUM to reclaim.
			delta.UnsortedRows = int64(len(rows))
		}
		if err := cat.UpdateStats(def.ID, delta); err != nil {
			return out, err
		}
	}
	return out, nil
}

// checkNotNull enforces NOT NULL constraints at load time.
func checkNotNull(def *catalog.TableDef, r types.Row) error {
	for i, col := range def.Columns {
		if col.NotNull && r[i].Null {
			return fmt.Errorf("load: null value in NOT NULL column %s", col.Name)
		}
	}
	return nil
}

// parseObjects reads and parses source objects with bounded parallelism.
func parseObjects(workers int, store *s3sim.Store, keys []string,
	def *catalog.TableDef, opts Options) ([]types.Row, int64, error) {

	if workers < 1 {
		workers = 1
	}
	type parsed struct {
		idx   int
		rows  []types.Row
		bytes int64
		err   error
	}
	jobs := make(chan int)
	outs := make(chan parsed, len(keys))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				// Data-lake reads retry with backoff: one flaky GET must
				// not fail a whole COPY.
				var data []byte
				_, err := faults.DefaultPolicy.Do(context.Background(), func() error {
					var gerr error
					data, gerr = store.Get(keys[idx])
					return gerr
				})
				if err != nil {
					outs <- parsed{idx: idx, err: err}
					continue
				}
				n := int64(len(data))
				if opts.GZip {
					data, err = gunzip(data)
					if err != nil {
						outs <- parsed{idx: idx, err: fmt.Errorf("load: %s: %w", keys[idx], err)}
						continue
					}
				}
				rows, err := parseObject(data, def, opts)
				if err != nil {
					err = fmt.Errorf("load: %s: %w", keys[idx], err)
				}
				outs <- parsed{idx: idx, rows: rows, bytes: n, err: err}
			}
		}()
	}
	go func() {
		for i := range keys {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(outs)
	}()

	byIdx := make([][]types.Row, len(keys))
	var total int64
	for p := range outs {
		if p.err != nil {
			return nil, 0, p.err
		}
		byIdx[p.idx] = p.rows
		total += p.bytes
	}
	var rows []types.Row
	for _, part := range byIdx {
		rows = append(rows, part...)
	}
	return rows, total, nil
}

func gunzip(data []byte) ([]byte, error) {
	r, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// parseObject parses one object's rows.
func parseObject(data []byte, def *catalog.TableDef, opts Options) ([]types.Row, error) {
	if strings.EqualFold(opts.Format, "JSON") {
		return parseJSON(data, def)
	}
	delim := opts.Delimiter
	if delim == 0 {
		delim = '|'
	}
	var rows []types.Row
	for lineNo, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		fields := strings.Split(line, string(delim))
		if len(fields) != len(def.Columns) {
			return nil, fmt.Errorf("line %d: %d fields, table has %d columns", lineNo+1, len(fields), len(def.Columns))
		}
		row := make(types.Row, len(fields))
		for i, f := range fields {
			v, err := types.ParseValue(def.Columns[i].Type, f)
			if err != nil {
				return nil, fmt.Errorf("line %d column %s: %w", lineNo+1, def.Columns[i].Name, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// parseJSON parses newline-delimited JSON objects keyed by column name
// (COPY's direct JSON ingestion, §2.1). Missing keys become NULL.
func parseJSON(data []byte, def *catalog.TableDef) ([]types.Row, error) {
	var rows []types.Row
	dec := json.NewDecoder(bytes.NewReader(data))
	for lineNo := 1; ; lineNo++ {
		var obj map[string]json.RawMessage
		if err := dec.Decode(&obj); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("json record %d: %w", lineNo, err)
		}
		row := make(types.Row, len(def.Columns))
		for i, col := range def.Columns {
			raw, ok := findKey(obj, col.Name)
			if !ok || string(raw) == "null" {
				row[i] = types.NewNull(col.Type)
				continue
			}
			v, err := jsonValue(col.Type, raw)
			if err != nil {
				return nil, fmt.Errorf("json record %d column %s: %w", lineNo, col.Name, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func findKey(obj map[string]json.RawMessage, name string) (json.RawMessage, bool) {
	if v, ok := obj[name]; ok {
		return v, true
	}
	for k, v := range obj {
		if strings.EqualFold(k, name) {
			return v, true
		}
	}
	return nil, false
}

func jsonValue(t types.Type, raw json.RawMessage) (types.Value, error) {
	switch t {
	case types.Int64:
		var i int64
		if err := json.Unmarshal(raw, &i); err != nil {
			return types.Value{}, err
		}
		return types.NewInt(i), nil
	case types.Float64:
		var f float64
		if err := json.Unmarshal(raw, &f); err != nil {
			return types.Value{}, err
		}
		return types.NewFloat(f), nil
	case types.Bool:
		var b bool
		if err := json.Unmarshal(raw, &b); err != nil {
			return types.Value{}, err
		}
		return types.NewBool(b), nil
	default:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return types.Value{}, err
		}
		if t == types.String {
			return types.NewString(s), nil
		}
		return types.ParseValue(t, s)
	}
}

// chooseEncodings samples the incoming rows and sets each auto column's
// encoding to the analyzer's pick.
func chooseEncodings(cat *catalog.Catalog, def *catalog.TableDef, rows []types.Row) error {
	const sampleMax = 4096
	for ci, col := range def.Columns {
		if !col.AutoEncoding {
			continue
		}
		// Build the column for the sampled rows, then let the analyzer's
		// contiguous sampler pick its regions.
		vec := types.NewVector(col.Type, min(len(rows), sampleMax))
		for _, r := range rows {
			vec.Append(r[ci])
			if vec.Len() >= 4*sampleMax {
				break
			}
		}
		enc := compress.Choose(compress.Sample(vec, sampleMax))
		if err := cat.SetEncoding(def.ID, ci, enc); err != nil {
			return err
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// SortRows orders rows per the table's SORTKEY in place and reports
// whether the table defines a sort at all — VACUUM's re-sort step.
func SortRows(def *catalog.TableDef, rows []types.Row) (bool, error) {
	s, err := newSorter(def, rows)
	if err != nil {
		return false, err
	}
	s.sort(rows)
	return s.sorted, nil
}

// sorter orders a slice's rows per the table's SORTKEY.
type sorter struct {
	sorted bool
	// Compound sort: lexicographic comparator.
	less func(a, b types.Row) bool
	// Interleaved sort: z-curve machinery.
	curve   *zorder.Curve
	norms   []zorder.Normalizer
	keyCols []int
}

// newSorter builds the local sort for a load batch. Interleaved sort keys
// use the z-curve with normalizers derived from the batch's value ranges.
func newSorter(def *catalog.TableDef, all []types.Row) (*sorter, error) {
	switch def.SortStyle {
	case catalog.SortNone:
		return &sorter{}, nil
	case catalog.SortCompound:
		keys := def.SortKeyCols
		return &sorter{
			sorted: true,
			less: func(a, b types.Row) bool {
				for _, k := range keys {
					c := types.Compare(a[k], b[k])
					if c != 0 {
						return c < 0
					}
				}
				return false
			},
		}, nil
	case catalog.SortInterleaved:
		curve, err := zorder.NewCurve(len(def.SortKeyCols))
		if err != nil {
			return nil, err
		}
		norms := make([]zorder.Normalizer, len(def.SortKeyCols))
		for d, k := range def.SortKeyCols {
			lo, hi := columnBounds(all, k)
			norms[d] = zorder.NewNormalizer(def.Columns[k].Type, lo, hi)
		}
		return &sorter{
			sorted:  true,
			curve:   &curve,
			norms:   norms,
			keyCols: def.SortKeyCols,
		}, nil
	default:
		return nil, fmt.Errorf("load: unknown sort style %v", def.SortStyle)
	}
}

// sort orders one slice's rows. It is called concurrently from per-slice
// goroutines, so all scratch state is local.
func (s *sorter) sort(rows []types.Row) {
	switch {
	case s.curve != nil:
		// Precompute each row's z-value once, then sort by it.
		keys := make([]uint64, len(rows))
		vals := make([]types.Value, len(s.keyCols))
		for i, r := range rows {
			for d, k := range s.keyCols {
				vals[d] = r[k]
			}
			keys[i] = s.curve.Key(s.norms, vals)
		}
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		out := make([]types.Row, len(rows))
		for i, j := range idx {
			out[i] = rows[j]
		}
		copy(rows, out)
	case s.less != nil:
		sort.SliceStable(rows, func(i, j int) bool { return s.less(rows[i], rows[j]) })
	}
}

// columnBounds finds min/max of a column across the load batch.
func columnBounds(rows []types.Row, col int) (lo, hi types.Value) {
	for _, r := range rows {
		v := r[col]
		if v.Null {
			continue
		}
		if lo.T == types.Invalid || types.Compare(v, lo) < 0 {
			lo = v
		}
		if hi.T == types.Invalid || types.Compare(v, hi) > 0 {
			hi = v
		}
	}
	if lo.T == types.Invalid {
		lo, hi = types.NewInt(0), types.NewInt(0)
	}
	return lo, hi
}

// ComputeStats derives table statistics for a row set, including HLL
// distinct estimates — shared by COPY's stats-on-load and ANALYZE. The
// per-column sketches are serialized into the stats so later Merges union
// them losslessly instead of falling back to max-NDV lower bounds, and
// per-column width sums feed the cost model's row-width estimates.
func ComputeStats(def *catalog.TableDef, rows []types.Row) catalog.TableStats {
	stats := catalog.TableStats{Rows: int64(len(rows)), Cols: make([]catalog.ColumnStats, len(def.Columns))}
	sketches := make([]*hll.Sketch, len(def.Columns))
	for i := range sketches {
		sketches[i] = hll.New()
	}
	for _, r := range rows {
		for ci, v := range r {
			cs := &stats.Cols[ci]
			if v.Null {
				cs.NullCount++
				continue
			}
			if cs.Min.T == types.Invalid || types.Compare(v, cs.Min) < 0 {
				cs.Min = v
			}
			if cs.Max.T == types.Invalid || types.Compare(v, cs.Max) > 0 {
				cs.Max = v
			}
			switch v.T {
			case types.String:
				cs.WidthSum += int64(len(v.S))
				sketches[ci].AddString(v.S)
			case types.Float64:
				cs.WidthSum += 8
				sketches[ci].AddInt64(int64(v.F*1e6) ^ v.I)
			default:
				cs.WidthSum += 8
				sketches[ci].AddInt64(v.I)
			}
		}
	}
	for ci := range stats.Cols {
		stats.Cols[ci].Min = stats.Cols[ci].Min.Detached()
		stats.Cols[ci].Max = stats.Cols[ci].Max.Detached()
		stats.Cols[ci].NDV = sketches[ci].Estimate()
		stats.Cols[ci].Sketch = sketches[ci].Marshal()
	}
	return stats
}
