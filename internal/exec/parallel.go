package exec

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"redshift/internal/plan"
	"redshift/internal/storage"
	"redshift/internal/types"
)

// Morsel is the unit of intra-slice parallel work: one block row-group of
// one segment, tagged with its dense dispatch sequence (0..n-1 in the
// exact order the serial ScanOp would have visited it). The sequence is
// what lets downstream stages reassemble the serial batch stream: every
// morsel yields at most one batch, so collecting per-morsel outputs in
// Seq order reproduces the serial pipeline's stream bit for bit.
type Morsel struct {
	Seg   *storage.Segment
	Block int
	Seq   int64
}

// MorselQueue is a shared work queue over a slice's visible blocks. It is
// a plain atomic cursor over a precomputed unit list — pulling is one
// atomic add, so dozens of workers can drain a scan without contending on
// anything but the counter.
type MorselQueue struct {
	units []Morsel
	next  atomic.Int64
}

// NewMorselQueue enumerates every block of the given segments in serial
// scan order.
func NewMorselQueue(segs []*storage.Segment) *MorselQueue {
	q := &MorselQueue{}
	for _, seg := range segs {
		for bi := 0; bi < seg.NumBlocks(); bi++ {
			q.units = append(q.units, Morsel{Seg: seg, Block: bi, Seq: int64(len(q.units))})
		}
	}
	return q
}

// Next hands out the next undispatched morsel.
func (q *MorselQueue) Next() (Morsel, bool) {
	i := q.next.Add(1) - 1
	if i >= int64(len(q.units)) {
		return Morsel{}, false
	}
	return q.units[i], true
}

// Len returns the total number of morsels in the queue.
func (q *MorselQueue) Len() int { return len(q.units) }

// fnvOwner assigns a hash key to one of dop owner-workers (FNV-1a).
func fnvOwner(k []byte, dop int) int {
	h := uint32(2166136261)
	for i := 0; i < len(k); i++ {
		h ^= uint32(k[i])
		h *= 16777619
	}
	return int(h % uint32(dop))
}

// ParallelBuild drains an already-collected build side into the join's
// hash table using dop workers, producing a table identical to feeding
// the same batches through Build one at a time. Three phases:
//
//  1. Serial concat: batches are charged and appended to j.build exactly
//     as Build would (including size-hint application and mid-stream
//     spill cutover), but without touching the hash table.
//  2. Parallel key evaluation: workers encode every batch's join keys.
//  3. Partitioned insert: dop owner-workers each scan all keys in batch
//     order and link only the keys they own (hash(k) % dop) into a
//     private table at the row's global build position, so per-key
//     chains come out ascending — the serial insert order. The disjoint
//     tables are then unified into j.table.
//
// Memory: phase 1 charges batch bytes per batch; the table's key/position
// overhead is charged as one lump after phase 3. If either charge fails,
// the join flips into grace-spill mode (re-partitioning whatever was
// accumulated), exactly like the serial path — the spill trigger point
// can differ from serial by part of a batch, but the join's output
// cannot: the grace path replays build rows in their original order.
func (j *HashJoin) ParallelBuild(ctx context.Context, src []*Batch, dop int) error {
	if dop <= 1 {
		for _, b := range src {
			if err := j.Build(b); err != nil {
				return err
			}
		}
		return nil
	}
	// Phase 1: serial concat + byte charging (Build minus table inserts).
	var retained []*Batch
	var bases []int
	for idx, b := range src {
		j.noteBuildTypes(b)
		if j.hinted {
			if err := j.applyHint(); err != nil {
				return err
			}
		}
		if j.spill != nil {
			// The size hint (or an earlier overflow) put us on the grace
			// path; the rest of the input streams straight to partitions.
			return j.buildRest(src[idx:])
		}
		if !j.mc.tryGrow(b.ByteSize()) {
			if err := j.enterSpill(); err != nil {
				return err
			}
			return j.buildRest(src[idx:])
		}
		j.charged += b.ByteSize()
		bases = append(bases, j.build.N)
		if err := j.alignAndConcat(b); err != nil {
			return err
		}
		retained = append(retained, b)
	}
	nb := len(retained)
	if nb == 0 {
		return nil
	}

	// Phase 2: parallel key evaluation.
	j.growNext()
	keys := make([]batchKeys, nb)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, dop)
	for w := 0; w < dop; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= nb {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				ks, err := encodeKeys(j.buildKeys, retained[i])
				if err != nil {
					errs[w] = err
					return
				}
				keys[i] = ks
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Phase 3: owner-partitioned inserts into disjoint tables. Owners
	// link disjoint build rows, so they share j.next without conflict.
	subs := make([]*HashJoin, dop)
	deltas := make([]int64, dop)
	for w := 0; w < dop; w++ {
		wg.Add(1)
		go func(owner int) {
			defer wg.Done()
			sub := &HashJoin{table: make(map[string]int), next: j.next}
			var delta int64
			for i := 0; i < nb; i++ {
				base := bases[i]
				for r := range keys[i].ends {
					k := keys[i].key(r)
					if k == nil || fnvOwner(k, dop) != owner {
						continue // a NULL key (never matches) or another owner's
					}
					if sub.link(k, base+r) {
						delta += joinKeyOverhead + int64(len(k))
					}
					delta += joinPosBytes
				}
			}
			subs[owner], deltas[owner] = sub, delta
		}(w)
	}
	wg.Wait()

	var keyDelta int64
	for w, sub := range subs {
		keyDelta += deltas[w]
		for k, c := range sub.table {
			j.table[k] = len(j.chains)
			j.chains = append(j.chains, sub.chains[c])
		}
	}
	if !j.mc.tryGrow(keyDelta) {
		// enterSpill resets the table and re-partitions the accumulated
		// build rows; the shrink it performs returns the phase-1 charges.
		return j.enterSpill()
	}
	j.charged += keyDelta
	return nil
}

// buildRest forwards the remaining build input through the serial path
// (which routes to the grace-spill partitions once j.spill is set).
func (j *HashJoin) buildRest(rest []*Batch) error {
	for _, b := range rest {
		if err := j.Build(b); err != nil {
			return err
		}
	}
	return nil
}

// WorkerAgg is one morsel worker's private partial aggregation: a
// GroupTable plus the morsel sequence that first created each resident
// group, so the per-slice merge can reconstruct the exact group order the
// serial table would have produced.
type WorkerAgg struct {
	gt       *GroupTable
	firstSeq []int64 // parallel to gt.order
}

// NewWorkerAgg wraps a fresh per-worker GroupTable.
func NewWorkerAgg(gt *GroupTable) *WorkerAgg { return &WorkerAgg{gt: gt} }

// Table exposes the underlying table (for release and stats).
func (w *WorkerAgg) Table() *GroupTable { return w.gt }

// Consume folds one morsel's batch, tagging any newly created groups with
// the morsel's sequence. Once the table spills, no new resident groups
// appear, so firstSeq stays aligned with gt.order.
func (w *WorkerAgg) Consume(b *Batch, seq int64) error {
	if err := w.gt.Consume(b); err != nil {
		return err
	}
	for len(w.firstSeq) < len(w.gt.order) {
		w.firstSeq = append(w.firstSeq, seq)
	}
	return nil
}

// MergeWorkerAggs folds per-worker partial tables into dst (assumed
// empty). When no worker spilled, groups are adopted in ascending
// first-seen morsel order — a k-way merge over the workers' already
// seq-ordered group lists. Two workers never share a sequence (a morsel
// is processed by exactly one worker) and within a worker creation order
// is already (seq, in-morsel row) order, so the merged order is exactly
// the serial table's first-seen order. When a worker spilled, tables
// merge in worker order via Drain: group ORDER can then differ from a
// serial run, but group contents never do — and every query whose output
// order is observable sorts downstream anyway.
func MergeWorkerAggs(ctx context.Context, dst *GroupTable, workers []*WorkerAgg) error {
	for _, w := range workers {
		if w.gt.Spilled() {
			for _, w := range workers {
				if err := dst.MergeCtx(ctx, w.gt); err != nil {
					return err
				}
			}
			return nil
		}
	}
	cursors := make([]int, len(workers))
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		best := -1
		var bestSeq int64
		for i, w := range workers {
			if cursors[i] >= len(w.gt.order) {
				continue
			}
			if s := w.firstSeq[cursors[i]]; best < 0 || s < bestSeq {
				best, bestSeq = i, s
			}
		}
		if best < 0 {
			return nil
		}
		src := workers[best].gt
		k := src.order[cursors[best]]
		cursors[best]++
		og := src.groups[k]
		if grp, ok := dst.groups[k]; ok {
			for i := range grp.states {
				grp.states[i].Merge(og.states[i])
			}
			continue
		}
		dst.groups[k] = og
		dst.order = append(dst.order, k)
		og.batch = 0
		if dst.mc != nil && dst.mc.T != nil {
			nb := groupMemBytes(og)
			og.mem = nb
			dst.mc.grow(nb)
			dst.charged += nb
		}
	}
}

// DistinctSieve is a morsel worker's pre-deduplication for parallel
// DISTINCT: it keeps each key's first occurrence within this worker's
// stream. Because a worker's morsel sequences are increasing, the
// globally first occurrence of any key always survives its worker's
// sieve — so a final slice-level StreamDistinct pass over the sieved
// batches in morsel order emits exactly the serial survivor stream.
type DistinctSieve struct {
	seen *rowSet
}

// NewDistinctSieve prepares an empty per-worker sieve.
func NewDistinctSieve() *DistinctSieve { return &DistinctSieve{seen: newRowSet(0)} }

// Apply drops rows this worker has already seen, following the
// StreamDistinct ownership contract: the input is returned untouched when
// every row survives, released and replaced by a gathered copy when some
// do, and released with nil returned when none do.
func (d *DistinctSieve) Apply(b *Batch) *Batch {
	sel, _ := d.seen.filter(b)
	if len(sel) == b.N {
		return b
	}
	if len(sel) == 0 {
		PutBatch(b)
		return nil
	}
	out := b.Gather(sel)
	PutBatch(b)
	return out
}

// TopNPartial accumulates one worker's share of a slice-local ORDER BY +
// LIMIT. Each batch is tagged with a trailing Int64 morsel-sequence
// column and sorted by (keys..., seq); truncating a worker's candidates
// at the limit is then exact, because (keys, seq, in-morsel row order) is
// the same total order the serial TopNOp's stable sort realizes.
type TopNPartial struct {
	sorter *ExternalSorter
	width  int // payload width, without the seq column
}

// NewTopNPartial prepares one worker's partial sorter. width is the
// projection width; the sorter runs over width+1 columns (payload + seq).
func NewTopNPartial(keys []plan.OrderKey, limit int64, width int, mc *MemContext) *TopNPartial {
	return &TopNPartial{sorter: NewExternalSorter(seqKeys(keys, width), width+1, mc, limit), width: width}
}

// seqKeys extends the ORDER BY keys with the morsel-sequence column that
// follows a width-column payload.
func seqKeys(keys []plan.OrderKey, width int) []plan.OrderKey {
	return append(append(make([]plan.OrderKey, 0, len(keys)+1), keys...), plan.OrderKey{Index: width})
}

// Add folds one post-projection batch tagged with its morsel sequence.
// The batch is spent (the TopN ownership contract).
func (t *TopNPartial) Add(b *Batch, seq int64) error {
	seqv := types.NewVector(types.Int64, b.N)
	sv := types.NewInt(seq)
	for i := 0; i < b.N; i++ {
		seqv.Append(sv)
	}
	tagged := &Batch{Cols: make([]*types.Vector, t.width+1), N: b.N}
	copy(tagged.Cols, b.Cols)
	tagged.Cols[t.width] = seqv
	err := t.sorter.Add(tagged) // Add copies; tagged's payload still aliases b
	PutBatch(b)
	return err
}

// Collect returns this worker's at-most-limit candidate rows sorted by
// (keys, seq), releasing the sorter's memory.
func (t *TopNPartial) Collect(ctx context.Context) (*Batch, error) {
	b, err := t.sorter.Result(ctx)
	t.sorter.Release()
	return b, err
}

// Release returns the partial's sorter memory on abandon paths.
// Idempotent, and safe after Collect.
func (t *TopNPartial) Release() { t.sorter.Release() }

// MergeTopNPartials combines per-worker candidate batches into the exact
// slice-level top-N: feed them through one bounded sorter by (keys, seq),
// strip the seq column. Partial batches are consumed.
func MergeTopNPartials(parts []*Batch, keys []plan.OrderKey, limit int64, width int) (*Batch, error) {
	sorter := NewExternalSorter(seqKeys(keys, width), width+1, nil, limit)
	for _, p := range parts {
		err := sorter.Add(p)
		PutBatch(p)
		if err != nil {
			return nil, err
		}
	}
	out, err := sorter.Result(context.Background())
	if err != nil {
		return nil, err
	}
	out.Cols = out.Cols[:width]
	return out, nil
}

// seqBatch pairs a scanned batch with its morsel sequence for the
// order-restoring sender.
type seqBatch struct {
	seq int64
	b   *Batch
}

// ParallelProduce is the morsel-parallel twin of Exchange.Produce for scan
// producers: dop workers (one per scanner) pull blocks from the queue and
// scan concurrently, while a single sender forwards the batches in morsel
// order through route and Send — so consumers observe exactly the serial
// producer's deterministic batch order. Scan stats go to the shared
// ScanStats the scanners were built with; st (may be nil) receives the
// producer-side operator counters the serial path's instrumentation would
// have recorded, and morsels (may be nil) counts dispatched units.
func ParallelProduce(ctx context.Context, ex *Exchange, src int, queue *MorselQueue, scanners []*Scanner, route RouteFn, st *OpStats, morsels *atomic.Int64) {
	defer ex.closeSend(src)
	dop := len(scanners)
	results := make(chan seqBatch, dop)
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	var once sync.Once
	var werr error
	fail := func(err error) {
		once.Do(func() {
			werr = err
			cancel()
		})
	}
	for _, sc := range scanners {
		wg.Add(1)
		go func(sc *Scanner) {
			defer wg.Done()
			for {
				if wctx.Err() != nil {
					return
				}
				m, ok := queue.Next()
				if !ok {
					return
				}
				if morsels != nil {
					morsels.Add(1)
				}
				if m.Seg.Schema.Len() != sc.width {
					fail(errWidth("segment", m.Seg.Schema.Len(), sc.width))
					return
				}
				start := time.Now()
				b, err := sc.ScanBlock(wctx, m.Seg, m.Block)
				if st != nil {
					st.Nanos.Add(int64(time.Since(start)))
				}
				if err != nil {
					fail(err)
					return
				}
				if b != nil && st != nil {
					st.Batches.Add(1)
					st.Rows.Add(int64(b.N))
				}
				select {
				case results <- seqBatch{m.Seq, b}:
				case <-wctx.Done():
					if b != nil {
						PutBatch(b)
					}
					return
				}
			}
		}(sc)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Sender: reorder completions back into morsel order before routing,
	// mirroring Produce's semantics (stop on the first failure; pruned
	// blocks produce no batch but still advance the sequence).
	pending := map[int64]*Batch{}
	var next int64
	stopped := false
	for r := range results {
		if stopped {
			if r.b != nil {
				PutBatch(r.b)
			}
			continue
		}
		pending[r.seq] = r.b
		for !stopped {
			b, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if b == nil {
				continue
			}
			parts, err := route(b)
			if err != nil {
				ex.Abort(err)
				fail(err)
				stopped = true
				break
			}
			for dst, p := range parts {
				if p == nil || p.N == 0 {
					continue
				}
				if err := ex.Send(ctx, src, dst, p); err != nil {
					fail(err)
					stopped = true
					break
				}
			}
		}
	}
	for _, b := range pending {
		if b != nil {
			PutBatch(b)
		}
	}
	if werr != nil && !stopped {
		ex.Abort(werr)
	}
}
