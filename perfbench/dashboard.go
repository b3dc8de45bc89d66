package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"redshift"
	"redshift/internal/wire"
)

// dashboard is a wallboard over the sales ⋈ items star: two connections
// in a closed loop sending short range lookups, small grouped aggregates
// and narrow fetches, most of them a repeat of the connection's previous
// statement. Its decoded working set fits the default 64 MiB block
// cache, so it stresses the wire, parse, core lifecycle, the result and
// plan caches and zone maps, not block decode or the hash operators.
type dashboard struct {
	seed int64
	data *star
}

const (
	dashRows   = 400_000
	dashConns  = 2
	dashRepeat = 0.7 // well away from 0.5, where the median would sit between hits and misses
	dashWarm   = time.Second
	// dashCommentLen keeps the unread comment column short.
	dashCommentLen = 16
)

func newDashboard(seed int64) *dashboard {
	return &dashboard{seed: seed, data: newStar(seed, dashRows, dashCommentLen)}
}

func (d *dashboard) options() redshift.Options { return redshift.Options{} }

func (d *dashboard) load(wh *redshift.Warehouse, ls *loadStats) error {
	return loadStar(wh, d.data, ls)
}

func (d *dashboard) run(e *env, dur time.Duration) (*outcome, *window, error) {
	var streams []stream
	for c := 0; c < dashConns; c++ {
		streams = append(streams, &dashStream{
			s:     d.data,
			rng:   rand.New(rand.NewSource(d.seed*1000 + int64(c))),
			first: c == 0,
		})
	}
	return closedLoop(e, streams, dur)
}

// loadStar loads the star with one COPY per table and analyzes it. The
// COPY input is rendered part by part outside the timed set-up, and the
// data lake, which lives in this process, is emptied after loading so the
// measured heap is the warehouse's own.
func loadStar(wh *redshift.Warehouse, s *star, ls *loadStats) error {
	for _, q := range s.ddl() {
		if _, err := wh.Execute(q); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	start := time.Now()
	if err := wh.PutObject("lake/items/0.csv", itemsCSV()); err != nil {
		return err
	}
	const parts = 4
	for p := 0; p < parts; p++ {
		if err := wh.PutObject(fmt.Sprintf("lake/sales/%d.csv", p), s.salesCSV(p*s.rows/parts, (p+1)*s.rows/parts)); err != nil {
			return err
		}
	}
	ls.untimed += time.Since(start)
	for _, q := range []string{`COPY items FROM 's3://lake/items/'`, `COPY sales FROM 's3://lake/sales/'`} {
		if _, err := timedExec(wh, q, &ls.copyTime); err != nil {
			return err
		}
	}
	ls.copyRows += int64(numItems + s.rows)
	for _, key := range wh.DataLake().List("lake/") {
		if err := wh.DataLake().Delete(key); err != nil {
			return err
		}
	}
	_, err := timedExec(wh, `ANALYZE`, &ls.analyzeTime)
	return err
}

// dashStream is one dashboard connection. Measured ranges span an even
// number of rows and warm-up ranges an odd number, so warm-up can never
// answer a measured statement from the result cache.
type dashStream struct {
	s     *star
	rng   *rand.Rand
	prev  query
	first bool // this connection opens the warm-up with full scans
	warms int
	// warmUntil ends the warm-up; set by the first warm-up statement.
	warmUntil time.Time
}

func (d *dashStream) next() query {
	if d.prev.sql != "" && d.rng.Float64() < dashRepeat {
		return d.prev
	}
	d.prev = d.fresh(0)
	return d.prev
}

func (d *dashStream) warm() (query, bool) {
	if d.warms == 0 {
		d.warmUntil = time.Now().Add(dashWarm)
	}
	d.warms++
	if d.first && d.warms <= 2 {
		return d.fullScan(d.warms), true
	}
	return d.fresh(1), time.Now().Before(d.warmUntil)
}

// fresh draws a new statement whose row count has parity odd.
func (d *dashStream) fresh(odd int) query {
	n := func(lo, hi int) int { return lo + 2*d.rng.Intn((hi-lo)/2) + odd }
	switch d.rng.Intn(3) {
	case 0:
		return d.rangeCount(n(200, 4000))
	case 1:
		return d.categoryAgg(n(200, 4000))
	default:
		return d.fetch(n(10, 60))
	}
}

// rows picks a random range of n consecutive rows.
func (d *dashStream) rows(n int) (lo, hi int) {
	lo = d.rng.Intn(d.s.rows - n)
	return lo, lo + n - 1
}

func (d *dashStream) rangeCount(n int) query {
	lo, hi := d.rows(n)
	want := [][]string{{strconv.Itoa(n), strconv.FormatInt(d.s.qtySum(lo, hi), 10)}}
	return query{
		sql:   fmt.Sprintf(`SELECT COUNT(*), SUM(qty) FROM sales WHERE ts BETWEEN %d AND %d`, tsBase+lo, tsBase+hi),
		class: "short",
		check: func(r *wire.Response) error { return sameRows(r, want) },
	}
}

// categoryAgg joins the range to its items and counts per category; the
// join count must equal the range width.
func (d *dashStream) categoryAgg(n int) query {
	lo, hi := d.rows(n)
	count, qty := d.s.catCountQty(lo, hi)
	var want [][]string
	total := int64(0)
	for c := range categories { // categories are in name order
		total += count[c]
		if count[c] > 0 {
			want = append(want, []string{categories[c], strconv.FormatInt(count[c], 10), strconv.FormatInt(qty[c], 10)})
		}
	}
	if total != int64(n) {
		panic("closed form: category counts do not add up to the range width")
	}
	return query{
		sql: fmt.Sprintf(`SELECT i_category, COUNT(*), SUM(qty) FROM sales JOIN items ON s_item = i_id WHERE ts BETWEEN %d AND %d GROUP BY i_category ORDER BY i_category`,
			tsBase+lo, tsBase+hi),
		class: "short",
		check: func(r *wire.Response) error { return sameRows(r, want) },
	}
}

// fetch returns n rows in ts order.
func (d *dashStream) fetch(n int) query {
	lo, hi := d.rows(n)
	want := make([][]string, 0, n)
	for i := lo; i <= hi; i++ {
		want = append(want, []string{strconv.Itoa(tsBase + i), storeName(d.s.store(i)), strconv.Itoa(d.s.qty(i))})
	}
	return query{
		sql:   fmt.Sprintf(`SELECT ts, s_store, qty FROM sales WHERE ts BETWEEN %d AND %d ORDER BY ts`, tsBase+lo, tsBase+hi),
		class: "short",
		check: func(r *wire.Response) error { return sameRows(r, want) },
	}
}

// fullScan reads every column the dashboard touches once, filling the
// block cache before the window.
func (d *dashStream) fullScan(k int) query {
	s := d.s
	if k == 1 {
		want := [][]string{{strconv.Itoa(s.rows), strconv.FormatInt(s.qtySum(0, s.rows-1), 10),
			storeName(0), storeName(numStores - 1), "0"}}
		return query{
			sql:   `SELECT COUNT(*), SUM(qty), MIN(s_store), MAX(s_store), MIN(s_item) FROM sales`,
			check: func(r *wire.Response) error { return sameRows(r, want) },
		}
	}
	want := [][]string{{strconv.Itoa(s.rows)}}
	return query{
		sql:   `SELECT COUNT(*) FROM sales JOIN items ON s_item = i_id`,
		check: func(r *wire.Response) error { return sameRows(r, want) },
	}
}

// sameRows compares a response's rows with the expected ones exactly.
func sameRows(r *wire.Response, want [][]string) error {
	if len(r.Rows) != len(want) {
		return fmt.Errorf("got %d rows, want %d", len(r.Rows), len(want))
	}
	for i := range want {
		if len(r.Rows[i]) != len(want[i]) {
			return fmt.Errorf("row %d: got %d columns, want %d", i, len(r.Rows[i]), len(want[i]))
		}
		for j := range want[i] {
			if r.Rows[i][j] != want[i][j] {
				return fmt.Errorf("row %d column %d: got %q, want %q", i, j, r.Rows[i][j], want[i][j])
			}
		}
	}
	return nil
}
