package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// star is the seeded sales ⋈ items schema the dashboard and analytics
// workloads share. Every column is an affine function of the row number
// modulo a small period, so a query's answer has a closed form (or, for
// the heavy analytics shapes, a cheap recomputation) that the benchmark
// checks each response against. The seed picks the multipliers and
// offsets, so two seeds load different data with the same shape.
type star struct {
	rows int // fact rows
	// comments renders each comment id as text of the workload's width;
	// long comments are what push a star's decoded size past the cache.
	comments []string

	// Fact row i: ts = tsBase+i; item = (i*itemMul+itemOff) mod numItems;
	// cust = (i*custMul+custOff) mod numCusts; store = (i*storeMul+storeOff)
	// mod numStores; qty = 1 + (i*qtyMul+qtyOff) mod 9;
	// comment = (i*noteMul+noteOff) mod numNotes; amount = qty*price(item).
	itemMul, itemOff   int
	custMul, custOff   int
	storeMul, storeOff int
	qtyMul, qtyOff     int
	noteMul, noteOff   int
}

const (
	tsBase    = 1_000_000
	numItems  = 2000 // 2^4·5^3: an item multiplier must be odd and not a multiple of 5
	numCats   = 8    // category = item mod 8, so it has period 8 in i
	numCusts  = 20_000
	numStores = 64
	numNotes  = 10007
	qtyPeriod = 9
	// catQtyPeriod is the joint period of (category, qty) in i.
	catQtyPeriod = numCats * qtyPeriod
)

var categories = [numCats]string{"apparel", "books", "garden", "grocery", "music", "outdoor", "tools", "toys"}

// commentWords is the vocabulary comment text is drawn from.
var commentWords = []string{"late", "delivery", "gift", "wrapped", "returned", "damaged", "box", "express",
	"customer", "called", "about", "refund", "size", "color", "exchange", "loyal", "first", "order",
	"weekend", "sale", "coupon", "applied", "store", "pickup"}

func newStar(seed int64, rows, commentLen int) *star {
	rng := rand.New(rand.NewSource(seed))
	// coprime draws a multiplier coprime to every prime factor listed.
	coprime := func(mod int, primes ...int) int {
		for {
			m := 1 + rng.Intn(mod-1)
			ok := true
			for _, p := range primes {
				if m%p == 0 {
					ok = false
				}
			}
			if ok {
				return m
			}
		}
	}
	s := &star{
		rows:     rows,
		itemMul:  coprime(numItems, 2, 5),
		itemOff:  rng.Intn(numItems),
		custMul:  coprime(numCusts, 2, 5),
		custOff:  rng.Intn(numCusts),
		storeMul: coprime(numStores, 2),
		storeOff: rng.Intn(numStores),
		qtyMul:   coprime(qtyPeriod, 3),
		qtyOff:   rng.Intn(qtyPeriod),
		noteMul:  coprime(numNotes, numNotes),
		noteOff:  rng.Intn(numNotes),
	}
	// A comment starts with its zero-padded id, so comments sort as ids.
	s.comments = make([]string, numNotes)
	for n := range s.comments {
		var b strings.Builder
		fmt.Fprintf(&b, "c%05d", n)
		for j := 0; b.Len() < commentLen; j++ {
			b.WriteByte(' ')
			b.WriteString(commentWords[rng.Intn(len(commentWords))])
		}
		s.comments[n] = b.String()[:max(commentLen, 6)]
	}
	return s
}

func (s *star) item(i int) int  { return (i*s.itemMul + s.itemOff) % numItems }
func (s *star) cust(i int) int  { return (i*s.custMul + s.custOff) % numCusts }
func (s *star) store(i int) int { return (i*s.storeMul + s.storeOff) % numStores }
func (s *star) qty(i int) int   { return 1 + (i*s.qtyMul+s.qtyOff)%qtyPeriod }
func (s *star) note(i int) int  { return (i*s.noteMul + s.noteOff) % numNotes }
func (s *star) cat(i int) int   { return s.item(i) % numCats }
func (s *star) amount(i int) int64 {
	return int64(s.qty(i)) * itemPrice(s.item(i))
}

func itemPrice(item int) int64 { return 100 + int64(item*37%900) }
func storeName(st int) string  { return fmt.Sprintf("store-%03d", st) }
func brandName(item int) string {
	return fmt.Sprintf("brand-%03d", item/20)
}

// ddl creates the schema: the dimension is replicated to every node, the
// fact is distributed on its join key and sorted on ts so range
// predicates prune blocks through zone maps.
func (s *star) ddl() []string {
	return []string{
		`CREATE TABLE items (i_id BIGINT NOT NULL, i_category VARCHAR(16), i_brand VARCHAR(16), i_price BIGINT) DISTSTYLE ALL`,
		`CREATE TABLE sales (ts BIGINT NOT NULL, s_item BIGINT, s_cust BIGINT, s_store VARCHAR(16), qty BIGINT, amount BIGINT, s_comment VARCHAR(256)) DISTSTYLE KEY DISTKEY(s_item) COMPOUND SORTKEY(ts)`,
	}
}

// itemsCSV renders the dimension as COPY input.
func itemsCSV() []byte {
	var b strings.Builder
	for id := 0; id < numItems; id++ {
		fmt.Fprintf(&b, "%d|%s|%s|%d\n", id, categories[id%numCats], brandName(id), itemPrice(id))
	}
	return []byte(b.String())
}

// salesCSV renders fact rows [lo, hi) as COPY input, in ts order.
func (s *star) salesCSV(lo, hi int) []byte {
	var b strings.Builder
	for i := lo; i < hi; i++ {
		fmt.Fprintf(&b, "%d|%d|%d|%s|%d|%d|%s\n",
			tsBase+i, s.item(i), s.cust(i), storeName(s.store(i)), s.qty(i), s.amount(i), s.comments[s.note(i)])
	}
	return []byte(b.String())
}

// The closed forms below answer range queries over rows [lo, hi] (row
// numbers, inclusive) in O(period) time, independent of the range width.

// cycleSplit splits [lo, hi] into whole periods plus a remainder and returns
// how many whole periods there are and the remainder's row numbers.
func cycleSplit(lo, hi, period int) (whole int, rest []int) {
	n := hi - lo + 1
	whole = n / period
	for i := lo + whole*period; i <= hi; i++ {
		rest = append(rest, i)
	}
	return whole, rest
}

// qtySum is SUM(qty) over rows [lo, hi]: each whole period of 9 rows sums
// to 1+…+9 because qtyMul is coprime to 9.
func (s *star) qtySum(lo, hi int) int64 {
	whole, rest := cycleSplit(lo, hi, qtyPeriod)
	sum := int64(whole) * 45
	for _, i := range rest {
		sum += int64(s.qty(i))
	}
	return sum
}

// catCountQty is COUNT(*) and SUM(qty) per category over rows [lo, hi].
// Category has period 8 and qty period 9, so every 72 consecutive rows
// contribute the same per-category totals.
func (s *star) catCountQty(lo, hi int) (count, qty [numCats]int64) {
	whole, rest := cycleSplit(lo, hi, catQtyPeriod)
	if whole > 0 {
		for i := lo; i < lo+catQtyPeriod; i++ {
			c := s.cat(i)
			count[c] += int64(whole)
			qty[c] += int64(whole) * int64(s.qty(i))
		}
	}
	for _, i := range rest {
		count[s.cat(i)]++
		qty[s.cat(i)] += int64(s.qty(i))
	}
	return count, qty
}
