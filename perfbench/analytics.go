package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"redshift"
	"redshift/internal/wire"
)

// analytics is one analyst in a closed loop sending heavy statements over
// a larger star, each with a fresh predicate so none repeats. Its decoded
// working set overflows the default 64 MiB block cache, so block decode,
// the hash join and aggregation tables, morsel workers and the garbage
// collector do the work, while the wire, parse and the caches do little.
type analytics struct {
	seed int64
	data *star
}

const (
	anaRows = 400_000
	// anaCommentLen makes the comment column most of a row's decoded
	// size: with it, the star decodes to about 1.5 times the block cache
	// while COPY still fits comfortably in a small host's memory.
	anaCommentLen = 200
)

func newAnalytics(seed int64) *analytics {
	return &analytics{seed: seed, data: newStar(seed, anaRows, anaCommentLen)}
}

func (a *analytics) options() redshift.Options { return redshift.Options{} }

func (a *analytics) load(wh *redshift.Warehouse, ls *loadStats) error {
	return loadStar(wh, a.data, ls)
}

func (a *analytics) run(e *env, dur time.Duration) (*outcome, *window, error) {
	rng := rand.New(rand.NewSource(a.seed))
	st := &analyticsStream{s: a.data, rng: rng, used: map[string]bool{}, pos: rng.Intn(a.data.rows / 4)}
	out, win, err := closedLoop(e, []stream{st}, dur)
	if err != nil {
		return nil, nil, err
	}
	// Answers are recomputed from the generator after the window, so the
	// check costs the measured loop nothing.
	for _, c := range st.pending {
		if err := c.verify(); err != nil {
			out.wrong = append(out.wrong, fmt.Sprintf("%s: %v", c.sql, err))
		}
	}
	return out, win, nil
}

// analyticsStream sends the three heavy shapes in turn, so each holds a
// third of the samples. Measured predicates start at an even row, warm-up
// ones at an odd row.
type analyticsStream struct {
	s       *star
	rng     *rand.Rand
	n       int
	used    map[string]bool
	pending []*heavyCheck
	warmed  int
	pos     int // window position, in units of two rows
}

// heavyCheck is a response kept for checking after the window.
type heavyCheck struct {
	sql    string
	resp   *wire.Response
	verify func() error
}

func (a *analyticsStream) next() query {
	for {
		q, verify := a.draw(a.n%3, 0)
		if a.used[q.sql] {
			continue
		}
		a.used[q.sql] = true
		a.n++
		hc := &heavyCheck{sql: q.sql}
		hc.verify = func() error { return verify(hc.resp) }
		q.check = func(r *wire.Response) error {
			hc.resp = r
			a.pending = append(a.pending, hc)
			return nil
		}
		return q
	}
}

// warm sends each shape once before the window.
func (a *analyticsStream) warm() (query, bool) {
	if a.warmed == 3 {
		return query{}, false
	}
	q, verify := a.draw(a.warmed, 1)
	a.warmed++
	q.check = verify
	return q, true
}

// draw renders shape k over a window of rows whose first row has parity
// odd. A shape's windows all cover the same share of the table. The top-N
// shape covers twice the rows of the other two, so it is clearly the
// slowest: the tail falls inside its latencies and the median inside the
// other two's, not in a gap between shapes, where it would jump from run
// to run. Successive windows sweep the table by a fixed stride from a
// seeded start, so over a run they touch all of it — more than the block
// cache holds — in the same order on every run of a seed.
func (a *analyticsStream) draw(k, odd int) (query, func(*wire.Response) error) {
	s := a.s
	// Tenths of the table each shape's window covers.
	width := s.rows * [3]int{3, 3, 6}[k] / 10
	slots := (s.rows - width) / 2
	a.pos = (a.pos + 1 + slots*37/100) % slots
	lo, hi := 2*a.pos+odd, 2*a.pos+odd+width-1
	between := fmt.Sprintf("ts BETWEEN %d AND %d", tsBase+lo, tsBase+hi)
	switch k {
	case 0:
		skip := 1 + a.rng.Intn(qtyPeriod)
		return query{
			sql: fmt.Sprintf(`SELECT s_store, COUNT(*), SUM(amount), MIN(s_comment), MAX(s_comment) FROM sales WHERE %s AND qty <> %d GROUP BY s_store ORDER BY s_store`,
				between, skip),
			class: "heavy",
		}, func(r *wire.Response) error { return sameRows(r, s.storeAgg(lo, hi, skip)) }
	case 1:
		price := 100 + a.rng.Intn(800)
		return query{
			sql: fmt.Sprintf(`SELECT i_category, COUNT(*), SUM(amount) FROM sales JOIN items ON s_item = i_id WHERE %s AND i_price > %d GROUP BY i_category ORDER BY i_category`,
				between, price),
			class: "heavy",
		}, func(r *wire.Response) error { return sameRows(r, s.categoryAgg(lo, hi, int64(price))) }
	default:
		return query{
			sql:   fmt.Sprintf(`SELECT s_cust, SUM(amount) AS total, COUNT(*) FROM sales WHERE %s GROUP BY s_cust ORDER BY total DESC, s_cust LIMIT 10`, between),
			class: "heavy",
		}, func(r *wire.Response) error { return sameRows(r, s.topCustomers(lo, hi, 10)) }
	}
}

// The answers below are recomputed row by row from the generator.

func (s *star) storeAgg(lo, hi, skip int) [][]string {
	var count, sum [numStores]int64
	minNote, maxNote := [numStores]int{}, [numStores]int{}
	for i := range minNote {
		minNote[i] = numNotes
		maxNote[i] = -1
	}
	for i := lo; i <= hi; i++ {
		if s.qty(i) == skip {
			continue
		}
		st, n := s.store(i), s.note(i)
		count[st]++
		sum[st] += s.amount(i)
		minNote[st] = min(minNote[st], n)
		maxNote[st] = max(maxNote[st], n)
	}
	var out [][]string
	for st := 0; st < numStores; st++ { // store names sort as their numbers
		if count[st] > 0 {
			out = append(out, []string{storeName(st), strconv.FormatInt(count[st], 10), strconv.FormatInt(sum[st], 10),
				s.comments[minNote[st]], s.comments[maxNote[st]]})
		}
	}
	return out
}

func (s *star) categoryAgg(lo, hi int, price int64) [][]string {
	var count, sum [numCats]int64
	for i := lo; i <= hi; i++ {
		if it := s.item(i); itemPrice(it) > price {
			count[it%numCats]++
			sum[it%numCats] += s.amount(i)
		}
	}
	var out [][]string
	for c := range categories {
		if count[c] > 0 {
			out = append(out, []string{categories[c], strconv.FormatInt(count[c], 10), strconv.FormatInt(sum[c], 10)})
		}
	}
	return out
}

func (s *star) topCustomers(lo, hi, n int) [][]string {
	sum := make([]int64, numCusts)
	count := make([]int64, numCusts)
	for i := lo; i <= hi; i++ {
		c := s.cust(i)
		sum[c] += s.amount(i)
		count[c]++
	}
	ids := make([]int, 0, numCusts)
	for c := range sum {
		if count[c] > 0 {
			ids = append(ids, c)
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		if sum[ids[a]] != sum[ids[b]] {
			return sum[ids[a]] > sum[ids[b]]
		}
		return ids[a] < ids[b]
	})
	var out [][]string
	for _, c := range ids[:min(n, len(ids))] {
		out = append(out, []string{strconv.Itoa(c), strconv.FormatInt(sum[c], 10), strconv.FormatInt(count[c], 10)})
	}
	return out
}
