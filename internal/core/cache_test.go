package core

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"redshift/internal/cluster"
	"redshift/internal/exec"
	"redshift/internal/s3sim"
)

// TestCountStarMetadataOnly is the regression test for the forced-decode
// bug: a bare COUNT(*) used to decode column 0 of every block; it is now
// answered from block metadata with zero blocks read.
func TestCountStarMetadataOnly(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		res := mustExec(t, db, `SELECT COUNT(*) FROM sales`)
		if res.Rows[0][0].I != 1000 {
			t.Fatalf("count = %v, want 1000", res.Rows[0][0])
		}
		if res.Stats.BlocksRead != 0 {
			t.Errorf("COUNT(*) read %d blocks, want 0", res.Stats.BlocksRead)
		}
		if res.Stats.RowsScanned != 1000 {
			t.Errorf("RowsScanned = %d, want 1000", res.Stats.RowsScanned)
		}
		// With a filter the scan is real again.
		res = mustExec(t, db, `SELECT COUNT(*) FROM sales WHERE qty >= 1`)
		if res.Rows[0][0].I != 1000 || res.Stats.BlocksRead == 0 {
			t.Errorf("filtered count = %v blocks = %d", res.Rows[0][0], res.Stats.BlocksRead)
		}
	})
}

func TestBlockCacheWarmsAcrossQueries(t *testing.T) {
	db := openDB(t, 0)
	seedSales(t, db)
	// The repeat run must actually scan (that's what warms the block
	// cache); keep the result cache out of the way.
	mustExec(t, db, `SET result_cache TO off`)
	const q = `SELECT SUM(qty) AS s, MAX(region) AS r FROM sales`

	cold := mustExec(t, db, q)
	cs := db.BlockCache().Stats()
	if cs.Misses == 0 || cs.Hits != 0 {
		t.Fatalf("cold stats = %+v", cs)
	}
	coldRows := fmt.Sprint(cold.Rows)

	warm := mustExec(t, db, q)
	ws := db.BlockCache().Stats()
	if ws.Hits == 0 {
		t.Errorf("warm run hit nothing: %+v", ws)
	}
	if ws.Misses != cs.Misses {
		t.Errorf("warm run missed: %d -> %d", cs.Misses, ws.Misses)
	}
	if got := fmt.Sprint(warm.Rows); got != coldRows {
		t.Errorf("cached result differs: %s vs %s", got, coldRows)
	}

	// The counters surface through the system table…
	res := mustExec(t, db, `SELECT hits, misses, bytes_cached, budget_bytes FROM stv_block_cache`)
	if len(res.Rows) != 1 {
		t.Fatalf("stv_block_cache rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].I != ws.Hits || res.Rows[0][1].I != ws.Misses {
		t.Errorf("stv_block_cache = %v, cache = %+v", res.Rows[0], ws)
	}
	if res.Rows[0][2].I == 0 || res.Rows[0][3].I != 64<<20 {
		t.Errorf("bytes/budget = %d/%d", res.Rows[0][2].I, res.Rows[0][3].I)
	}
	// …and through /metrics.
	if got := db.Telemetry().Gauge("block_cache_hits").Value(); got != ws.Hits {
		t.Errorf("block_cache_hits gauge = %d, want %d", got, ws.Hits)
	}
}

// TestBlockCacheCoherence covers the DDL paths that reuse block identities
// with new content: the cache must never serve stale decodes.
func TestBlockCacheCoherence(t *testing.T) {
	db := openDB(t, 0)
	load := func(vals string) {
		mustExec(t, db, `CREATE TABLE kv (k BIGINT, v BIGINT)`)
		mustExec(t, db, `INSERT INTO kv VALUES `+vals)
	}
	load(`(1, 10), (2, 20)`)
	if res := mustExec(t, db, `SELECT SUM(v) FROM kv`); res.Rows[0][0].I != 30 {
		t.Fatalf("sum = %v", res.Rows[0][0])
	}

	// DROP + recreate with different contents.
	mustExec(t, db, `DROP TABLE kv`)
	load(`(1, 100), (2, 200)`)
	if res := mustExec(t, db, `SELECT SUM(v) FROM kv`); res.Rows[0][0].I != 300 {
		t.Errorf("post-recreate sum = %v, want 300 (stale cache?)", res.Rows[0][0])
	}

	// TRUNCATE + refill.
	mustExec(t, db, `TRUNCATE kv`)
	mustExec(t, db, `INSERT INTO kv VALUES (1, 7)`)
	if res := mustExec(t, db, `SELECT SUM(v) FROM kv`); res.Rows[0][0].I != 7 {
		t.Errorf("post-truncate sum = %v, want 7", res.Rows[0][0])
	}

	// VACUUM rebuilds segments reusing block identities; cached decodes of
	// the pre-vacuum blocks must not leak into post-vacuum reads.
	mustExec(t, db, `INSERT INTO kv VALUES (2, 8), (3, 9)`)
	mustExec(t, db, `SELECT SUM(v) FROM kv`) // warm the cache
	mustExec(t, db, `VACUUM kv`)
	if res := mustExec(t, db, `SELECT SUM(v) FROM kv`); res.Rows[0][0].I != 24 {
		t.Errorf("post-vacuum sum = %v, want 24", res.Rows[0][0])
	}
}

// TestBlockCacheIdenticalResults asserts bit-identical output with the
// cache on and off, in both execution modes, warm and cold.
func TestBlockCacheIdenticalResults(t *testing.T) {
	queries := []string{
		`SELECT ts, qty, region FROM sales WHERE ts BETWEEN 10100 AND 10120 ORDER BY ts`,
		`SELECT region, SUM(qty) AS q FROM sales GROUP BY region ORDER BY region`,
		`SELECT COUNT(*) FROM sales WHERE qty = 3`,
	}
	var want []string
	for _, mode := range []exec.Mode{exec.Compiled, exec.Interpreted} {
		for _, budget := range []int64{-1, 1 << 20} {
			db, err := Open(Config{
				Cluster:         cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 64},
				Mode:            mode,
				DataStore:       s3sim.New(),
				BlockCacheBytes: budget,
			})
			if err != nil {
				t.Fatal(err)
			}
			seedSales(t, db)
			var got []string
			for _, q := range queries {
				for pass := 0; pass < 2; pass++ { // cold then warm
					got = append(got, fmt.Sprint(mustExec(t, db, q).Rows))
				}
			}
			if want == nil {
				want = got
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("mode=%v budget=%d result %d:\n got %s\nwant %s",
						mode, budget, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBlockCacheConcurrentQueries drives the same warm-up race the slice
// goroutines create in production; meaningful under -race.
func TestBlockCacheConcurrentQueries(t *testing.T) {
	db := openDB(t, 0)
	seedSales(t, db)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := db.Execute(`SELECT SUM(qty) AS s FROM sales WHERE ts >= 10000`)
				if err != nil {
					errs[g] = err
					return
				}
				if res.Rows[0][0].I != 3000 {
					errs[g] = fmt.Errorf("sum = %v", res.Rows[0][0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s := db.BlockCache().Stats(); s.Bytes > s.Budget {
		t.Errorf("cache over budget: %+v", s)
	}
}

// TestCachedResultHoldsOnlyItsStrings: a decoded string is a slice of its
// whole block, and the result cache charges a result by its strings'
// lengths, so a stored result must hold copies. The copies are laid end to
// end in one allocation; slices of a block never are, since a length prefix
// or dictionary layout separates its values.
func TestCachedResultHoldsOnlyItsStrings(t *testing.T) {
	db := openDB(t, 0)
	seedSales(t, db)
	const q = `SELECT region, ts FROM sales WHERE ts < 10020 ORDER BY ts`
	first := mustExec(t, db, q)
	res := mustExec(t, db, q)
	if !res.Cached || len(res.Rows) != 20 {
		t.Fatalf("repeat: cached=%v rows=%d, want a cached 20-row result", res.Cached, len(res.Rows))
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint(first.Rows) {
		t.Fatalf("cached rows %v differ from %v", res.Rows, first.Rows)
	}
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1][0].S, res.Rows[i][0].S
		if unsafe.Pointer(unsafe.StringData(cur)) != unsafe.Add(unsafe.Pointer(unsafe.StringData(prev)), len(prev)) {
			t.Fatalf("row %d: cached string %q is not a copy owned by the result", i, cur)
		}
	}
}
