package redshift

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

// spillSeed picks the data-generation seed for the spill suite. CI pins it
// via SPILL_SEED; a failure report always includes the seed so the exact
// dataset can be replayed locally:
//
//	SPILL_SEED=<seed> go test -race -run TestSpill .
func spillSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(20260805)
	if s := os.Getenv("SPILL_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SPILL_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("spill seed = %d (replay with SPILL_SEED=%d)", seed, seed)
	return seed
}

// seedSpillTables loads a fact table big enough that hash aggregation,
// sorting and the join build side all blow through a KiB-scale grant:
// events has one group per row on ts, users is a broadcast-joined
// dimension fattened with a pad column. Amounts are exact halves so float
// sums are order-independent and compare bit-for-bit across tiers.
func seedSpillTables(t *testing.T, w *Warehouse, seed int64, nEvents, nUsers int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w.MustExecute(`CREATE TABLE events (
		ts BIGINT NOT NULL, user_id BIGINT, kind VARCHAR(16), amount DOUBLE PRECISION
	) DISTSTYLE KEY DISTKEY(user_id) COMPOUND SORTKEY(ts)`)
	w.MustExecute(`CREATE TABLE users (
		id BIGINT NOT NULL, segment VARCHAR(16), pad VARCHAR(64)
	) DISTSTYLE KEY DISTKEY(id)`)

	kinds := []string{"view", "click", "buy"}
	var ev strings.Builder
	for i := 0; i < nEvents; i++ {
		// user_id range deliberately exceeds the users table so LEFT JOIN
		// has rows to null-extend.
		fmt.Fprintf(&ev, "%d|%d|%s|%g\n",
			i, rng.Intn(nUsers+nUsers/2), kinds[rng.Intn(3)], float64(rng.Intn(100))/2)
	}
	if err := w.PutObject("lake/events/part0.csv", []byte(ev.String())); err != nil {
		t.Fatal(err)
	}
	w.MustExecute(`COPY events FROM 's3://lake/events/'`)

	segs := []string{"free", "pro", "enterprise"}
	var us strings.Builder
	for i := 0; i < nUsers; i++ {
		fmt.Fprintf(&us, "%d|%s|%s\n", i, segs[rng.Intn(3)], strings.Repeat("x", 40+i%8))
	}
	if err := w.PutObject("lake/users/part0.csv", []byte(us.String())); err != nil {
		t.Fatal(err)
	}
	w.MustExecute(`COPY users FROM 's3://lake/users/'`)
}

// spillBattery exercises every spillable operator — hash join (inner and
// left), high-cardinality hash aggregation, full-table ORDER BY, DISTINCT
// and the bounded top-N of ORDER BY ... LIMIT (a leader top-10 over
// aggregated groups, a NULL-first cut through a join, and a LIMIT whose
// candidates alone outgrow a 64 KiB grant) — with every query fully
// ordered so results compare row for row.
var spillBattery = []string{
	`SELECT ts, SUM(amount) AS total FROM events GROUP BY ts ORDER BY ts`,
	`SELECT u.segment, COUNT(*) AS n, SUM(e.amount) AS total
		FROM events e JOIN users u ON e.user_id = u.id
		GROUP BY u.segment ORDER BY u.segment`,
	`SELECT e.ts, u.segment FROM events e LEFT JOIN users u ON e.user_id = u.id
		ORDER BY e.ts`,
	`SELECT ts, user_id, amount FROM events ORDER BY amount, ts`,
	`SELECT DISTINCT user_id, kind FROM events ORDER BY user_id, kind`,
	`SELECT kind, COUNT(*) AS n, SUM(amount) AS total, MIN(ts), MAX(ts)
		FROM events GROUP BY kind ORDER BY kind`,
	`SELECT user_id, SUM(amount) AS total FROM events
		GROUP BY user_id ORDER BY total DESC, user_id LIMIT 10`,
	`SELECT e.ts, u.segment FROM events e LEFT JOIN users u ON e.user_id = u.id
		ORDER BY u.segment, e.ts LIMIT 300`,
	`SELECT ts, user_id, kind, amount FROM events ORDER BY amount DESC, ts LIMIT 5000`,
}

// assertSpillClean checks the post-run hygiene invariants: all tracked
// execution memory returned, no batch leaked, and the scratch base dir
// holds no leftover per-query directories.
func assertSpillClean(t *testing.T, w *Warehouse, spillDir string) {
	t.Helper()
	if n := w.Metrics().Gauge("exec_mem_bytes").Value(); n != 0 {
		t.Errorf("exec_mem_bytes = %d after queries finished, want 0", n)
	}
	if n := w.Metrics().Gauge("exec_batches_in_flight").Value(); n != 0 {
		t.Errorf("exec_batches_in_flight = %d after queries finished, want 0", n)
	}
	ents, err := os.ReadDir(spillDir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("scratch %s not cleaned up from %s", e.Name(), spillDir)
	}
}

// TestSpillTwinMatchesUnlimited is the tentpole's headline invariant: the
// same battery, run under an unlimited grant and under grants small enough
// to force every blocking operator to disk, returns bit-identical rows.
// Spilling changes where the work happens, never what it computes.
func TestSpillTwinMatchesUnlimited(t *testing.T) {
	seed := spillSeed(t)
	const nEvents, nUsers = 8000, 2000

	ref := launch(t, Options{Nodes: 2})
	seedSpillTables(t, ref, seed, nEvents, nUsers)
	want := make([]string, len(spillBattery))
	for i, q := range spillBattery {
		want[i] = rowsString(ref.MustExecute(q).Rows)
		if want[i] == "" {
			t.Fatalf("reference query %d returned no rows", i)
		}
	}
	if n := ref.Metrics().Counter("spill_bytes_total").Value(); n != 0 {
		t.Errorf("unlimited tier spilled %d bytes, want 0", n)
	}

	for _, tier := range []struct {
		name  string
		grant int64
	}{
		{"256KiB", 256 << 10},
		{"64KiB", 64 << 10},
	} {
		t.Run(tier.name, func(t *testing.T) {
			dir := t.TempDir()
			w := launch(t, Options{Nodes: 2, WLMSlotMemBytes: tier.grant, SpillDir: dir})
			seedSpillTables(t, w, seed, nEvents, nUsers)
			for i, q := range spillBattery {
				res, err := w.Execute(q)
				if err != nil {
					t.Fatalf("seed %d tier %s query %d failed: %v", seed, tier.name, i, err)
				}
				if got := rowsString(res.Rows); got != want[i] {
					t.Errorf("seed %d tier %s query %d diverged from unlimited run:\ngot:\n%swant:\n%s",
						seed, tier.name, i, got, want[i])
				}
				// The LIMIT 5000 candidates outgrow 64 KiB: the bounded
				// top-N must have taken its spill fallback.
				if i == len(spillBattery)-1 && tier.grant == 64<<10 {
					recs := w.DB().QueryLog().Records()
					if last := recs[len(recs)-1]; last.SpillBytes == 0 {
						t.Errorf("tier %s: top-N over its grant did not spill: %s", tier.name, last.SQL)
					}
				}
			}
			if n := w.Metrics().Counter("spill_bytes_total").Value(); n == 0 {
				t.Errorf("tier %s never spilled — the battery did not exercise the disk path", tier.name)
			}
			if n := w.Metrics().Counter("spilled_queries_total").Value(); n == 0 {
				t.Errorf("tier %s recorded no spilled queries", tier.name)
			}
			assertSpillClean(t, w, dir)
		})
	}
}

// TestSpillJoinStaysWithinGrant is the acceptance bound: a join whose
// build side is at least 8x the grant completes, spills, and its tracked
// peak never exceeds 2x the grant.
func TestSpillJoinStaysWithinGrant(t *testing.T) {
	seed := spillSeed(t)
	const grant = 64 << 10
	const nEvents, nUsers = 6000, 24000

	dir := t.TempDir()
	w := launch(t, Options{Nodes: 2, WLMSlotMemBytes: grant, SpillDir: dir})
	seedSpillTables(t, w, seed, nEvents, nUsers)

	// The join is co-located on the dist key, so each of the 4 slices
	// builds its local 6000-user partition: ~6000 x (12B payload + ~80B
	// key overhead) = ~540 KiB per build — over 8x the 64 KiB grant even
	// if only one slice's build is ever charged at a time.
	res := w.MustExecute(`SELECT u.segment, COUNT(*) AS n, SUM(e.amount) AS total
		FROM events e JOIN users u ON e.user_id = u.id
		GROUP BY u.segment ORDER BY u.segment`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}

	recs := w.DB().QueryLog().Records()
	if len(recs) == 0 {
		t.Fatal("no stl_query records")
	}
	last := recs[len(recs)-1]
	if last.SpillBytes == 0 {
		t.Fatal("8x-grant join did not spill")
	}
	if last.SpillBytes < 8*grant/2 {
		// The build side alone is >= 8x the grant; well over half of it
		// must have hit disk (probe and output partitions add more).
		t.Errorf("spill_bytes = %d, implausibly low for an 8x-grant build", last.SpillBytes)
	}
	if last.MemPeak == 0 {
		t.Error("mem_peak = 0 — tracker never charged")
	}
	if last.MemPeak > 2*grant {
		t.Errorf("mem_peak = %d exceeds 2x grant (%d): spilling failed to bound memory",
			last.MemPeak, 2*grant)
	}
	t.Logf("grant=%d mem_peak=%d spill_bytes=%d", grant, last.MemPeak, last.SpillBytes)
	assertSpillClean(t, w, dir)
}

// TestWorkMemOverridesGrant: SET work_mem swaps the per-query budget at
// runtime — shrinking it forces spills on an otherwise-ungoverned
// warehouse, and 'default' restores the WLM grant.
func TestWorkMemOverridesGrant(t *testing.T) {
	seed := spillSeed(t)
	dir := t.TempDir()
	w := launch(t, Options{Nodes: 2, SpillDir: dir})
	seedSpillTables(t, w, seed, 8000, 500)
	// The governed repeats must actually execute (spilling is the point);
	// keep the result cache from answering them.
	w.MustExecute(`SET result_cache TO off`)

	const q = `SELECT ts, SUM(amount) AS total FROM events GROUP BY ts ORDER BY ts`
	want := rowsString(w.MustExecute(q).Rows)
	if n := w.Metrics().Counter("spill_bytes_total").Value(); n != 0 {
		t.Fatalf("ungoverned query spilled %d bytes", n)
	}

	w.MustExecute(`SET work_mem TO '64KB'`)
	res := w.MustExecute(q)
	if got := rowsString(res.Rows); got != want {
		t.Errorf("work_mem-governed run diverged:\ngot:\n%swant:\n%s", got, want)
	}
	spilled := w.Metrics().Counter("spill_bytes_total").Value()
	if spilled == 0 {
		t.Error("64KB work_mem did not force a spill")
	}

	// EXPLAIN surfaces the active grant.
	ex := w.MustExecute(`EXPLAIN ` + q)
	if !strings.Contains(rowsString(ex.Rows), "Memory Grant: 65536 bytes") {
		t.Errorf("EXPLAIN does not show the work_mem grant:\n%s", rowsString(ex.Rows))
	}

	w.MustExecute(`SET work_mem TO 'default'`)
	w.MustExecute(q)
	if n := w.Metrics().Counter("spill_bytes_total").Value(); n != spilled {
		t.Errorf("spill_bytes_total grew after work_mem reset: %d -> %d", spilled, n)
	}
	assertSpillClean(t, w, dir)
}
